package main

import (
	"encoding/json"
	"io"
	"net"
	"os"
	"strings"
	"testing"

	"repro/internal/server"
)

// startInProc starts an in-process server with the daemon flags args.
func startInProc(args []string) (*inProcDaemon, error) {
	o, err := serverOptions(args)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return serveInProc(server.New(o), l), nil
}

// smokeRun runs a tiny fixed number of units against an in-process
// server.Server on loopback TCP: the traffic, checking and replay code is
// the one the benchmark runs against the mcd process.
func smokeRun(t *testing.T, name string, units int, trace bool) *runOutput {
	t.Helper()
	out, err := runWorkload(runOpts{
		workload:    name,
		seed:        3,
		units:       units,
		trace:       trace,
		setups:      1,
		outDir:      t.TempDir(),
		replayUnits: units,
		start:       func(args []string) (daemon, error) { return startInProc(args) },
		log:         io.Discard,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name  string
		units int
	}{{"interactive", 4}, {"harness", 2}, {"compile", 2}, {"churn", 12}} {
		out := smokeRun(t, tc.name, tc.units, false)
		if !out.res.Correct || out.res.Failed != 0 || out.res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d of %d: %v", tc.name, out.res.Correct, out.res.Failed, out.res.Attempted, out.failures)
		}
		for _, def := range endToEnd {
			if v, ok := out.res.Metrics[def.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, %v", tc.name, def.Name, v, ok)
			}
		}
		// A run this small is refused percentiles; each is named with the
		// reason instead of printed from a handful of samples.
		for _, def := range classMetrics {
			if _, ok := out.rec.Metrics[def.Name]; !ok && out.notes[def.Name] != "" &&
				!strings.HasPrefix(out.notes[def.Name], "refused") {
				t.Errorf("%s: %s neither reported nor refused: %s", tc.name, def.Name, out.notes[def.Name])
			}
		}

		tr := smokeRun(t, tc.name, tc.units, true)
		if !tr.res.Correct || tr.res.Failed != 0 || tr.res.Attempted == 0 {
			t.Errorf("%s traced: correct=%v failed=%d of %d: %v", tc.name, tr.res.Correct, tr.res.Failed, tr.res.Attempted, tr.failures)
		}
		for _, def := range perLayer {
			if _, ok := tr.res.Metrics[def.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not reported", tc.name, def.Name)
			}
		}
		// The layer rows must add up to the end-to-end total, which is
		// computed apart from them (the replayed requests' round trips), so
		// the shares sum to one.
		var sum float64
		for _, r := range layerRows {
			sum += tr.res.Metrics[r+".frac"].Value
		}
		if sum < 0.999999 || sum > 1.000001 {
			t.Errorf("%s: layer shares sum to %v, want 1", tc.name, sum)
		}
	}
}

// TestExactRepeat pins that the single-connection workloads do exactly
// the same work on two runs of one seed: the daemon's counters move by
// the same amounts.
func TestExactRepeat(t *testing.T) {
	keys := []string{"funcs_compiled", "funcs_reused", "analyses_built", "spill_hits", "spill_writes", "cache_evictions"}
	for _, tc := range []struct {
		name  string
		units int
		moves []string // counters the workload must move at all
	}{
		{"compile", 3, []string{"funcs_compiled", "funcs_reused", "analyses_built"}},
		{"churn", 40, []string{"spill_hits", "spill_writes", "cache_evictions"}},
	} {
		a := smokeRun(t, tc.name, tc.units, false)
		b := smokeRun(t, tc.name, tc.units, false)
		for _, k := range keys {
			if a.deltas[k] != b.deltas[k] {
				t.Errorf("%s: %s moved by %d, then by %d", tc.name, k, a.deltas[k], b.deltas[k])
			}
		}
		for _, k := range tc.moves {
			if a.deltas[k] == 0 {
				t.Errorf("%s: %s did not move", tc.name, k)
			}
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, mcperf %d", len(spec.Workloads), len(workloadNames))
	}
	for i, wl := range spec.Workloads {
		w, err := newWorkload(wl.Name, 1)
		if err != nil || wl.Name != workloadNames[i] || wl.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q)", i, wl.Name, wl.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, mcperf %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, mcperf %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
