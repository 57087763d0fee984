package oracle

import (
	"flag"
	"os"
	"testing"
)

// -oracle.seeds overrides the corpus size; the default keeps the test
// fast enough for every `go test ./...` run while CI's oracle smoke
// step and local full sweeps pass -oracle.seeds=200.
var corpusSeeds = flag.Int("oracle.seeds", 20, "number of randprog seeds for the oracle corpus test")

// TestCorpus runs the differential oracle over the seed corpus at every
// configuration and fails on any recorded defect. A failing seed's
// minimized repro is written next to the test so it can be attached as
// a CI artifact.
func TestCorpus(t *testing.T) {
	var seeds []int64
	for s := int64(0); s < int64(*corpusSeeds); s++ {
		seeds = append(seeds, s)
	}
	res, err := Run(Options{Seeds: seeds, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("totals: %+v", res.Totals)
	for k, c := range res.Coverage {
		cur, rec, non := c.Pcts()
		t.Logf("coverage %s: pairs=%d current=%s recovered=%s noncurrent=%s uninit=%d",
			k, c.Pairs, cur, rec, non, c.Uninit)
	}
	if res.Totals.CheckedCurrent == 0 || res.Totals.CheckedRecovered == 0 {
		t.Errorf("oracle checked nothing (totals %+v): the harness is broken", res.Totals)
	}
	for _, m := range res.Mismatches {
		t.Errorf("MISMATCH %s", m)
	}
	if len(res.Mismatches) > 0 {
		path := "oracle_failures.txt"
		var body []byte
		for _, m := range res.Mismatches {
			body = append(body, []byte(m.String()+"\n--- minimized repro:\n"+m.Minimized+"\n\n")...)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Logf("could not write %s: %v", path, err)
		} else {
			t.Logf("failing seeds and minimized repros written to %s", path)
		}
	}
}

// TestCoverageDeterminism runs the same corpus twice and requires
// byte-identical metrics: the sweep must not depend on map order, timing,
// or allocator state.
func TestCoverageDeterminism(t *testing.T) {
	seeds := []int64{0, 1, 2, 3, 4}
	a, err := Run(Options{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Options{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Coverage) != len(b.Coverage) {
		t.Fatalf("coverage config sets differ: %d vs %d", len(a.Coverage), len(b.Coverage))
	}
	for k, ca := range a.Coverage {
		cb, ok := b.Coverage[k]
		if !ok {
			t.Fatalf("config %s missing from second run", k)
		}
		if ca != cb {
			t.Errorf("coverage for %s differs between identical runs:\n  first:  %+v\n  second: %+v", k, ca, cb)
		}
		ca1, ra1, na1 := ca.Pcts()
		cb1, rb1, nb1 := cb.Pcts()
		if ca1 != cb1 || ra1 != rb1 || na1 != nb1 {
			t.Errorf("formatted percentages for %s differ: %s/%s/%s vs %s/%s/%s", k, ca1, ra1, na1, cb1, rb1, nb1)
		}
	}
	if a.Totals != b.Totals {
		t.Errorf("totals differ between identical runs: %+v vs %+v", a.Totals, b.Totals)
	}
}

// TestOracleHasTeeth runs the sweep against the paper's no-compiler-support
// ablation: with NoMarkers the optimizer records none of the §3
// bookkeeping, so the classifier vouches for values the optimizations
// made stale. An oracle that passes this corpus could not catch a broken
// classifier, so each configuration must fail on several seeds.
func TestOracleHasTeeth(t *testing.T) {
	configs := DefaultConfigs()
	for name, cfg := range configs {
		cfg.Opt.NoMarkers = true
		configs[name] = cfg
	}
	var seeds []int64
	for s := int64(0); s < 20; s++ {
		seeds = append(seeds, s)
	}
	res, err := Run(Options{Seeds: seeds, Configs: configs})
	if err != nil {
		t.Fatal(err)
	}
	failing := map[string]map[int64]bool{}
	for _, m := range res.Mismatches {
		if failing[m.Config] == nil {
			failing[m.Config] = map[int64]bool{}
		}
		failing[m.Config][m.Seed] = true
	}
	t.Logf("%d mismatches; failing seeds per config: O2 %d, O2NoRegAlloc %d",
		len(res.Mismatches), len(failing["O2"]), len(failing["O2NoRegAlloc"]))
	for name := range configs {
		if n := len(failing[name]); n < 4 {
			t.Errorf("%s without markers: only %d of %d seeds fail; the oracle no longer catches a classifier without compiler support",
				name, n, len(seeds))
		}
	}
}
