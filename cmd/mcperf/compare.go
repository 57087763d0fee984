package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords reads a -record file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict judges change b against parent a for one metric by the
// choosing-metrics rules. Runs are paired in file order. improved: the
// change wins at least nine tenths of at least ten pairs and the medians
// differ by more than the parent's quartile spread. For a bounded metric:
// unresolved when that spread is wider than the bound (unless every run
// of b beats every run of a), regressed when b's median is worse by more
// than the bound, else unchanged. A metric with no bound (per-class and
// per-layer) is improved, worsened (the mirror test) or unresolved.
func verdict(def metricDef, bounded bool, a, b []float64) (v string, wins, pairs int) {
	better := func(x, y float64) bool {
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs = min(len(a), len(b))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	spread := q3 - q1
	worse := mb - ma // how much worse b's median is; negative when better
	if def.Better == "higher" {
		worse = -worse
	}
	minA, maxA := extent(a)
	minB, maxB := extent(b)
	allBetter := maxB < minA
	if def.Better == "higher" {
		allBetter = minB > maxA
	}
	enough := pairs >= 10
	switch {
	case enough && float64(wins) >= 0.9*float64(pairs) && -worse > spread:
		return "improved", wins, pairs
	case !bounded && enough && float64(losses) >= 0.9*float64(pairs) && worse > spread:
		return "worsened", wins, pairs
	case !bounded:
		return "unresolved", wins, pairs
	}
	bound := def.Bound * math.Abs(ma)
	switch {
	case spread > bound && !allBetter:
		return "unresolved", wins, pairs
	case worse > bound:
		return "regressed", wins, pairs
	}
	return "unchanged", wins, pairs
}

func extent(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// compareRecords prints, for each workload and metric both files have,
// each side's median and quartiles, the pair win count and a verdict.
func compareRecords(a, b []record, out io.Writer) {
	group := func(rs []record) map[string]map[string][]float64 {
		g := map[string]map[string][]float64{}
		for _, r := range rs {
			if g[r.Workload] == nil {
				g[r.Workload] = map[string][]float64{}
			}
			for k, v := range r.Metrics {
				g[r.Workload][k] = append(g[r.Workload][k], v.Value)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	var wls []string
	for wl := range ga {
		if gb[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(out, "%-12s %-32s %-36s %-36s %7s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range wls {
		for _, tab := range []struct {
			defs    []metricDef
			bounded bool
		}{{endToEnd, true}, {classMetrics, false}, {perLayer, false}} {
			for _, def := range tab.defs {
				va, vb := ga[wl][def.Name], gb[wl][def.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				v, wins, pairs := verdict(def, tab.bounded, va, vb)
				fmt.Fprintf(out, "%-12s %-32s %-36s %-36s %3d/%-3d  %s\n", wl, def.Name+" ("+def.Unit+")",
					summary(va), summary(vb), wins, pairs, v)
			}
		}
	}
}

func summary(v []float64) string {
	q1, m, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", m, q1, q3, len(v))
}
