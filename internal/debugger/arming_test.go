package debugger

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/debuginfo"
	"repro/internal/randprog"
	"repro/internal/vm"
)

// TestEveryDebugLocArms is the invariant behind BreakSet.Add panicking on
// an unknown position: every location the debug tables hand out — LocOf
// and every LocsOf instance, for every statement of every function — is
// in the VM's predecoded layout, so arming a breakpoint can never fail.
// It sweeps the eight workloads and a randprog corpus under O0,
// O2NoRegAlloc and O2.
func TestEveryDebugLocArms(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	type prog struct{ name, src string }
	var progs []prog
	for _, n := range bench.Names {
		progs = append(progs, prog{n + ".mc", bench.MustSource(n)})
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		progs = append(progs, prog{fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed)})
	}
	cfgs := map[string]compile.Config{"O0": compile.O0(), "O2NoRegAlloc": compile.O2NoRegAlloc(), "O2": compile.O2()}
	for _, p := range progs {
		for cname, cfg := range cfgs {
			res, err := compile.Compile(p.name, p.src, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, cname, err)
			}
			m, err := vm.New(res.Mach)
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, cname, err)
			}
			bs := m.NewBreakSet()
			armed := 0
			for _, f := range res.Mach.Funcs {
				tbl := debuginfo.Build(f)
				for s := 0; s < tbl.NumStmts; s++ {
					var locs []debuginfo.Loc
					if l, ok := tbl.LocOf(s); ok {
						locs = append(locs, l)
					}
					ls, _ := tbl.LocsOf(s)
					locs = append(locs, ls...)
					for _, l := range locs {
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Fatalf("%s %s: %s stmt %d: %v", p.name, cname, f.Name, s, r)
								}
							}()
							bs.Add(f, l.Block, l.Idx)
						}()
						armed++
					}
				}
			}
			if armed == 0 {
				t.Errorf("%s %s: no debug location to arm", p.name, cname)
			}
		}
	}
}
