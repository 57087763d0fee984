package bench

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
)

// classifyDump renders every classification of every variable at every
// breakpoint of every function to a canonical string, so classifier output
// can be compared across independently compiled (and differently
// object-identified) results.
func classifyDump(res *compile.Result) string {
	var sb strings.Builder
	for _, f := range res.Mach.Funcs {
		a := core.Analyze(f)
		fmt.Fprintf(&sb, "func %s\n", f.Name)
		for s := 0; s < f.Decl.NumStmts; s++ {
			cs, ok := a.ClassifyAllAt(s)
			if !ok {
				continue
			}
			for _, c := range cs {
				fmt.Fprintf(&sb, "  s%d %s state=%d cause=%d why=%q src=%v",
					s, c.Var.Name, c.State, c.Cause, c.Why, c.SrcStmts)
				if r := c.Recovered; r != nil {
					fmt.Fprintf(&sb, " rec={k=%d reg=%v c=%d cf=%g isf=%t a=%d b=%d}",
						r.Kind, r.Reg, r.C, r.CF, r.IsF, r.A, r.B)
				}
				sb.WriteByte('\n')
			}
		}
	}
	return sb.String()
}

// TestParallelIncrementalClassifierEquivalence is the full differential:
// across all 8 workloads × 3 configurations, the parallel pipeline and the
// incremental (warm cache, fully stitched) pipeline must produce machine
// programs byte-identical to the serial pipeline (compile.Compile) AND
// identical ClassifyAll verdicts for every variable at every breakpoint.
func TestParallelIncrementalClassifierEquivalence(t *testing.T) {
	configs := map[string]compile.Config{
		"O2":           compile.O2(),
		"O2NoRegAlloc": compile.O2NoRegAlloc(),
		"O0":           compile.O0(),
	}
	for cfgName, cfg := range configs {
		par := compile.NewPipeline(compile.PipelineConfig{Workers: 8})
		inc := compile.NewPipeline(compile.PipelineConfig{
			Workers: 8,
			Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{Shards: 4}),
		})
		for _, name := range Names {
			src := MustSource(name)
			serial, err := compile.Compile(name, src, cfg)
			if err != nil {
				t.Fatalf("%s/%s: serial: %v", name, cfgName, err)
			}
			wantMach := sha256.Sum256([]byte(serial.Mach.String()))
			wantClassify := classifyDump(serial)

			check := func(kind string, res *compile.Result) {
				if sha256.Sum256([]byte(res.Mach.String())) != wantMach {
					t.Errorf("%s/%s: %s machine code differs from serial", name, cfgName, kind)
					return
				}
				if got := classifyDump(res); got != wantClassify {
					t.Errorf("%s/%s: %s ClassifyAll output differs from serial", name, cfgName, kind)
				}
			}

			pres, _, err := par.Compile(name, src, cfg)
			if err != nil {
				t.Fatalf("%s/%s: parallel: %v", name, cfgName, err)
			}
			check("parallel", pres)

			if _, _, err := inc.Compile(name, src, cfg); err != nil {
				t.Fatalf("%s/%s: incremental cold: %v", name, cfgName, err)
			}
			ires, m, err := inc.Compile(name, src, cfg)
			if err != nil {
				t.Fatalf("%s/%s: incremental warm: %v", name, cfgName, err)
			}
			if m.FuncsReused != m.Funcs {
				t.Errorf("%s/%s: warm incremental reused %d/%d funcs", name, cfgName, m.FuncsReused, m.Funcs)
			}
			check("incremental", ires)
		}
	}
}
