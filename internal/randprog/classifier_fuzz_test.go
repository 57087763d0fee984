package randprog

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
)

// TestClassifierRobustness fuzzes the debugger analyses: for many random
// programs, at every configuration, every in-scope variable at every
// breakpoint must classify without panicking, and the results must respect
// the classifier's own invariants.
func TestClassifierRobustness(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	cfgs := []compile.Config{
		compile.O0(),
		compile.O2NoRegAlloc(),
		compile.O2(),
	}
	for seed := int64(300); seed < int64(300+seeds); seed++ {
		src := Gen(seed)
		for ci, cfg := range cfgs {
			res, err := compile.Compile("rand.mc", src, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %d: %v", seed, ci, err)
			}
			for _, f := range res.Mach.Funcs {
				a := core.Analyze(f)
				for s := 0; s < f.Decl.NumStmts; s++ {
					cs, ok := a.ClassifyAllAt(s)
					if !ok {
						continue
					}
					for _, c := range cs {
						// Invariant: endangered or nonresident verdicts
						// always carry a user-facing warning.
						if (c.State == core.Noncurrent || c.State == core.Suspect ||
							c.State == core.Nonresident) && c.Why == "" {
							t.Errorf("seed %d cfg %d %s stmt %d: %s without warning text",
								seed, ci, c.Var.Name, s, c.State)
						}
						// Invariant: without regalloc, nonresident is
						// impossible (Figure 5a).
						if !f.Allocated && c.State == core.Nonresident {
							t.Errorf("seed %d cfg %d: nonresident %s without allocation",
								seed, ci, c.Var.Name)
						}
						// Invariant: endangerment needs a cause.
						if (c.State == core.Noncurrent || c.State == core.Suspect) &&
							c.Cause == core.NoCause {
							t.Errorf("seed %d cfg %d: %s endangered without cause",
								seed, ci, c.Var.Name)
						}
						// Invariant: linear recoveries never divide by 0.
						if r := c.Recovered; r != nil && r.Kind == core.RecoverLinear && r.A == 0 {
							t.Errorf("seed %d cfg %d: zero-coefficient linear recovery", seed, ci)
						}
					}
				}
			}
		}
	}
}
