package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// endToEndMetrics computes the untraced run's metrics: the endToEnd
// metrics, and the per-class percentiles that pass the percentile rule
// (one that does not is left out and noted). Every time is converted to
// the reference speed by the calibration of the epoch it was measured in.
func endToEndMetrics(w *workload, lat *latencies, results []unitResult, ep *epochs,
	attempted int64, hwm float64, setups []float64) (map[string]metricValue, map[string]string, error) {
	m := map[string]metricValue{}
	notes := map[string]string{}
	put := func(name string, v float64, note string) {
		def, _ := defOf(name)
		m[name] = metricValue{v, def.Unit}
		notes[name] = note
	}
	sorted := func(v []float64) []float64 {
		sort.Float64s(v)
		return v
	}
	// ref converts request times to the reference speed, in unit.
	ref := func(ss []sample, unit time.Duration) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = float64(ep.at(s.epoch, s.d)) / float64(unit)
		}
		return sorted(out)
	}
	// total is a unit's time at the reference speed, in ms: the sum of its
	// requests', each part scaled by its own epoch.
	total := func(ss []sample) float64 {
		var d time.Duration
		for _, s := range ss {
			d += ep.at(s.epoch, s.d)
		}
		return float64(d) / float64(time.Millisecond)
	}
	var unitMS, reopen []float64
	var cold, edits []sample
	for _, r := range results {
		if w.name == "churn" {
			reopen = append(reopen, total(r.Reopen))
			unitMS = append(unitMS, total(r.Reopen))
		} else {
			unitMS = append(unitMS, total(r.Spent))
		}
		if w.name == "compile" {
			cold = append(cold, r.Cold)
			edits = append(edits, r.Edits...)
		}
	}
	sorted(unitMS)
	sorted(reopen)
	us, ms := time.Microsecond, time.Millisecond
	stop, inspect, comp := ref(lat.d[clsStop], us), ref(lat.d[clsInspect], us), ref(lat.d[clsCompile], us)
	_, setup, _ := quartiles(setups)
	put("setup_s", setup, fmt.Sprintf("median of %d set-ups", len(setups)))
	wall := ep.refWall().Seconds()
	put("requests_per_s", float64(attempted)/wall, fmt.Sprintf("%d requests in %.2fs", attempted, wall))
	put("peak_rss_mb", hwm, "daemon VmHWM")
	for _, p := range []struct {
		name    string
		samples []float64
		kind    string
		stat    func([]float64) float64
	}{
		{"unit_ms_mean", unitMS, "mean", mean},
		{"stop_us_gmean", stop, "geometric mean", gmean},
		{"inspect_us_gmean", inspect, "geometric mean", gmean},
	} {
		if len(p.samples) == 0 {
			return m, notes, fmt.Errorf("%s: no samples", p.name)
		}
		put(p.name, p.stat(p.samples), fmt.Sprintf("%s of %d", p.kind, len(p.samples)))
	}
	// The percentiles: a workload reports those of the classes it issues,
	// each only when it has enough samples beyond it.
	for _, p := range []struct {
		name    string
		samples []float64
		q       float64
	}{
		{"unit_ms_p50", unitMS, 0.5},
		{"unit_ms_p90", unitMS, 0.9},
		{"stop_us_p50", stop, 0.5},
		{"stop_us_p90", stop, 0.9},
		{"stop_us_p99", stop, 0.99},
		{"inspect_us_p50", inspect, 0.5},
		{"inspect_us_p90", inspect, 0.9},
		{"inspect_us_p99", inspect, 0.99},
		{"compile_us_p50", comp, 0.5},
		{"compile_us_p90", comp, 0.9},
		{"open_us_p50", ref(lat.d[clsOpen], us), 0.5},
		{"coverage_us_p50", ref(lat.d[clsCoverage], us), 0.5},
		{"coverage_us_p90", ref(lat.d[clsCoverage], us), 0.9},
		{"compile_cold_ms_p50", ref(cold, ms), 0.5},
		{"compile_cold_ms_p90", ref(cold, ms), 0.9},
		{"compile_edit_ms_p50", ref(edits, ms), 0.5},
		{"compile_edit_ms_p90", ref(edits, ms), 0.9},
		{"reopen_ms_p50", reopen, 0.5},
		{"reopen_ms_p90", reopen, 0.9},
	} {
		if len(p.samples) == 0 {
			continue
		}
		v, err := percentile(p.samples, p.q)
		if err != nil {
			notes[p.name] = "refused: " + err.Error()
			continue
		}
		put(p.name, v, fmt.Sprintf("p%g of %d", p.q*100, len(p.samples)))
	}
	return m, notes, nil
}

// formatReport renders the human-readable summary of a run.
func formatReport(w *workload, o runOpts, m map[string]metricValue, notes map[string]string,
	attempted, failed int64, ep *epochs, units int) string {
	var elapsed time.Duration
	for _, d := range ep.wall {
		elapsed += d
	}
	var b strings.Builder
	fmt.Fprintf(&b, "mcperf %s, seed %d: %d closed-loop connection(s), %d units, %d requests in %.2fs, %d failed\n",
		w.name, o.seed, w.conns, units, attempted, elapsed.Seconds(), failed)
	fmt.Fprintf(&b, "  why: %s\n", w.why)
	fmt.Fprintf(&b, "  machine speed %.3f of the reference (median over %d epochs); times below are at the reference speed\n",
		ep.speed(), len(ep.wall))
	for _, tab := range [][]metricDef{endToEnd, classMetrics} {
		for _, d := range tab {
			v, ok := m[d.Name]
			note := notes[d.Name]
			if !ok && note == "" {
				continue
			}
			if ok {
				fmt.Fprintf(&b, "  %-20s %14.4f %-5s %s\n", d.Name, v.Value, d.Unit, note)
			} else {
				fmt.Fprintf(&b, "  %-20s %14s %-5s %s\n", d.Name, "-", d.Unit, note)
			}
		}
	}
	return b.String()
}

// perLayerMetrics derives the per-layer metrics from a traced run's
// replays: un ran untraced alone (heap and GC numbers), un2 and tr ran the
// same units in lockstep, tr with the shadow stack beside its server.
// Times come from tr's spans, counts from tr's server stats where the
// server counts them and from the shadow otherwise.
func perLayerMetrics(w *workload, un, un2, tr *replayResult) (map[string]metricValue, string, error) {
	untracedServe := float64(un2.serveTotal())
	rows, total := attribution(tr)
	row := map[string]layerRow{}
	for _, r := range rows {
		row[r.name] = r
	}
	reqs := float64(tr.requests())
	perCall := func(name string, unit float64) float64 { return ratio(row[name].self/unit, float64(row[name].calls)) }
	per := func(name string, unit, n float64) float64 { return ratio(row[name].self/unit, n) }
	d := func(k string) float64 { return float64(tr.deltas[k]) }
	sh := tr.sh
	selfVM := row["vm.run"].self
	v := map[string]float64{
		"wire.us_per_req":              per("wire", 1e3, reqs),
		"server.decode.us_per_req":     per("server.decode", 1e3, reqs),
		"server.decode.allocs_per_req": decodeAllocs(tr.lines),
		"server.other.us_per_req":      per("server.other", 1e3, reqs),
		"server.requests":              d("requests"),
		"store.get.us_per_call":        perCall("store.get", 1e3),
		// Served from memory: the store counts a spill reload as a hit too.
		"store.hit_ratio":                 ratio(d("cache_hits")-d("spill_hits"), d("cache_hits")+d("cache_misses")),
		"store.evictions":                 d("cache_evictions"),
		"store.spill.reads":               d("spill_hits"),
		"store.spill.read_ms_per_call":    perCall("store.spill.read", 1e6),
		"store.spill.writes":              d("spill_writes"),
		"store.spill.write_ms_per_call":   perCall("store.spill.write", 1e6),
		"front.ms_per_compile":            per("front", 1e6, float64(sh.pipelines)),
		"funccache.key_ms_per_compile":    per("funccache.key", 1e6, float64(sh.pipelines)),
		"funccache.stitch_ms_per_compile": per("funccache.stitch", 1e6, float64(sh.pipelines)),
		"funccache.reuse_ratio":           ratio(d("funcs_reused"), d("funcs_reused")+d("funcs_compiled")),
		"opt.ms_per_func":                 per("opt", 1e6, float64(sh.backends)),
		"lower.ms_per_func":               per("lower", 1e6, float64(sh.backends)),
		"regalloc.ms_per_func":            per("regalloc", 1e6, float64(sh.backends)),
		"sched.ms_per_func":               per("sched", 1e6, float64(sh.backends)),
		"backend.funcs":                   d("funcs_compiled"),
		"core.analyze.ms_per_func":        per("core.analyze", 1e6, float64(sh.analyses)),
		"core.analyses_built":             float64(sh.analyses),
		"core.classify.us_per_var":        per("core.classify", 1e3, float64(sh.vars)),
		"core.vars_classified":            float64(sh.vars),
		"coverage.sweep.us_per_call":      perCall("coverage.sweep", 1e3),
		"coverage.pairs":                  d("coverage_pairs"),
		"vm.run.ms_total":                 selfVM / 1e6,
		"vm.instrs":                       float64(sh.instrs),
		"vm.minstr_per_s":                 ratio(float64(sh.instrs)/1e6, selfVM/1e9),
		"debugger.open.us_per_call":       perCall("debugger.open", 1e3),
		"debugger.break.us_per_call":      perCall("debugger.break", 1e3),
		"heap.allocs_per_req":             ratio(float64(un.mallocs), float64(un.requests())),
		"heap.alloc_bytes_per_req":        ratio(float64(un.allocBytes), float64(un.requests())),
		"gc.cpu_frac":                     un.gcFrac,
		"trace.overhead_frac":             ratio(float64(tr.serveTotal()), untracedServe) - 1,
	}
	for _, r := range rows {
		v[r.name+".frac"] = ratio(r.self, total)
	}
	out := map[string]metricValue{}
	for _, def := range perLayer {
		x, ok := v[def.Name]
		if !ok {
			return nil, "", fmt.Errorf("per-layer metric %s not computed", def.Name)
		}
		out[def.Name] = metricValue{x, def.Unit}
	}
	var b strings.Builder
	b.WriteString(formatLayers(w.name, rows, total, tr.requests()))
	fmt.Fprintf(&b, "  replayed %d units; server.serve alone %.1f ms, in lockstep untraced %.1f ms and traced %.1f ms (overhead %+.2f%%)\n",
		tr.units, float64(un.serveTotal())/1e6, untracedServe/1e6, float64(tr.serveTotal())/1e6, 100*v["trace.overhead_frac"])
	b.WriteString("  wire by request class (round trip minus server.serve, mean):\n")
	for c := 0; c < numClasses; c++ {
		if n := float64(tr.count[c]); n > 0 {
			l, s := float64(tr.tcp[c])/n, float64(tr.serve[c])/n
			fmt.Fprintf(&b, "    %-9s %8.0f requests  tcp %9.2f us  serve %9.2f us  wire %9.2f us\n",
				classNames[c], n, l/1e3, s/1e3, (l-s)/1e3)
		}
	}
	return out, b.String(), nil
}
