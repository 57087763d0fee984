// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation section (run with `go test -bench=. -benchmem`). Each
// benchmark reports the paper's headline metric for that table/figure as
// custom benchmark units alongside the harness cost itself.
package repro

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/mach"
)

// BenchmarkTable2_ProgramStats regenerates Table 2 (program sizes,
// breakpoints per function, variables in scope per breakpoint).
func BenchmarkTable2_ProgramStats(b *testing.B) {
	var rows []bench.Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	var bps, vars float64
	for _, r := range rows {
		bps += float64(r.Breakpoints)
		vars += r.VarsPerBreak
	}
	b.ReportMetric(bps, "total-breakpoints")
	b.ReportMetric(vars/float64(len(rows)), "avg-vars/bkpt")
}

// BenchmarkTable3_Performance regenerates the Table 3 analog (optimized vs
// unoptimized cycles per workload).
func BenchmarkTable3_Performance(b *testing.B) {
	var rows []bench.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	geo := 1.0
	for _, r := range rows {
		geo *= r.Speedup
	}
	b.ReportMetric(math.Pow(geo, 1.0/float64(len(rows))), "geomean-speedup")
}

// BenchmarkTable4_SuspectShare regenerates Table 4 (the percentage of
// endangered variables that are suspect).
func BenchmarkTable4_SuspectShare(b *testing.B) {
	var rows []bench.Table4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	total := 0.0
	for _, r := range rows {
		total += r.PctSuspect
	}
	b.ReportMetric(total/float64(len(rows)), "avg-%suspect")
}

// BenchmarkFigure5a regenerates Figure 5(a): per-breakpoint classification
// averages with global optimizations only.
func BenchmarkFigure5a(b *testing.B) {
	benchmarkFigure5(b, bench.Figure5a)
}

// BenchmarkFigure5b regenerates Figure 5(b): per-breakpoint classification
// averages with global optimizations and register allocation.
func BenchmarkFigure5b(b *testing.B) {
	benchmarkFigure5(b, bench.Figure5b)
}

func benchmarkFigure5(b *testing.B, f func() ([]bench.Fig5Row, error)) {
	var rows []bench.Fig5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = f()
		if err != nil {
			b.Fatal(err)
		}
	}
	var cur, end, nonres float64
	for _, r := range rows {
		cur += r.Current
		end += r.Endangered
		nonres += r.Nonresident
	}
	n := float64(len(rows))
	b.ReportMetric(cur/n, "avg-current/bkpt")
	b.ReportMetric(end/n, "avg-endangered/bkpt")
	b.ReportMetric(nonres/n, "avg-nonresident/bkpt")
}

// BenchmarkClassifierOnly isolates the cost of the paper's contribution —
// the data-flow analyses plus per-breakpoint classification — over the
// compiled workloads (the paper notes "neither the execution time of the
// analysis phase nor the storage requirements are significant").
func BenchmarkClassifierOnly(b *testing.B) {
	cfg := compile.O2NoRegAlloc()
	cfg.RegAlloc = true
	var compiled []*compile.Result
	for _, name := range bench.Names {
		res, err := bench.CompileWorkload(name, cfg)
		if err != nil {
			b.Fatal(err)
		}
		compiled = append(compiled, res)
	}
	b.ResetTimer()
	classified := 0
	for i := 0; i < b.N; i++ {
		classified = 0
		for _, res := range compiled {
			for _, f := range res.Mach.Funcs {
				a := core.Analyze(f)
				for s := 0; s < f.Decl.NumStmts; s++ {
					cs, ok := a.ClassifyAllAt(s)
					if !ok {
						continue
					}
					classified += len(cs)
				}
			}
		}
	}
	b.ReportMetric(float64(classified), "classifications")
}

// BenchmarkClassifyAllHot measures the classifier's steady-state query
// cost: the analyses are solved once (as the debug service does after a
// compile) and then every statement of every Table 2 workload function is
// classified repeatedly — the workload shape of harness-style clients
// that issue thousands of classify-all queries per binary.
func BenchmarkClassifyAllHot(b *testing.B) {
	cfg := compile.O2NoRegAlloc()
	cfg.RegAlloc = true
	type fnA struct {
		a     *core.Analysis
		stmts int
	}
	var fns []fnA
	for _, name := range bench.Names {
		res, err := bench.CompileWorkload(name, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range res.Mach.Funcs {
			fns = append(fns, fnA{a: core.Analyze(f), stmts: f.Decl.NumStmts})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	classified := 0
	for i := 0; i < b.N; i++ {
		classified = 0
		for _, fa := range fns {
			for s := 0; s < fa.stmts; s++ {
				cs, ok := fa.a.ClassifyAllAt(s)
				if !ok {
					continue
				}
				classified += len(cs)
			}
		}
	}
	b.ReportMetric(float64(classified), "classifications")
}

// BenchmarkSolverRPO measures the data-flow solver alone on the CFGs of a
// real workload (gcc), with deterministic synthetic gen/kill sets, in both
// the may and must variants — the cost every solver client (PRE, constant
// folding, liveness, the classifier) pays per function.
func BenchmarkSolverRPO(b *testing.B) {
	res, err := bench.CompileWorkload("gcc", compile.O2())
	if err != nil {
		b.Fatal(err)
	}
	const bits = 256
	type prob struct {
		graph     dataflow.Graph
		gen, kill []*dataflow.BitSet
	}
	var probs []prob
	for _, f := range res.Mach.Funcs {
		idx := map[*mach.Block]int{}
		for i, blk := range f.Blocks {
			idx[blk] = i
		}
		n := len(f.Blocks)
		g := dataflow.Graph{N: n, Succs: make([][]int, n), Preds: make([][]int, n)}
		for i, blk := range f.Blocks {
			for _, s := range blk.Succs {
				si := idx[s]
				g.Succs[i] = append(g.Succs[i], si)
				g.Preds[si] = append(g.Preds[si], i)
			}
		}
		p := prob{graph: g, gen: make([]*dataflow.BitSet, n), kill: make([]*dataflow.BitSet, n)}
		rnd := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < n; i++ {
			p.gen[i] = dataflow.NewBitSet(bits)
			p.kill[i] = dataflow.NewBitSet(bits)
			for j := 0; j < bits; j++ {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				switch rnd >> 62 {
				case 0:
					p.gen[i].Set(j)
				case 1:
					p.kill[i].Set(j)
				}
			}
		}
		probs = append(probs, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range probs {
			(&dataflow.Problem{Graph: p.graph, Dir: dataflow.Forward, Meet: dataflow.Union,
				Bits: bits, Gen: p.gen, Kill: p.kill}).Solve()
			(&dataflow.Problem{Graph: p.graph, Dir: dataflow.Forward, Meet: dataflow.Intersect,
				Bits: bits, Gen: p.gen, Kill: p.kill}).Solve()
		}
	}
}

// BenchmarkCompileWorkloads measures full-pipeline compilation throughput.
func BenchmarkCompileWorkloads(b *testing.B) {
	for _, name := range bench.Names {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.CompileWorkload(name, compile.O2()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
