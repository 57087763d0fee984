// Execution hot-path benchmarks: continue-to-breakpoint and
// run-to-completion throughput on the predecoded bitmap engine, and
// run-to-exit throughput of every workload.
package repro

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/debugger"
	"repro/internal/vm"
)

const hotLoopSrc = `int main() {
	int i;
	int s = 0;
	for (i = 0; i < 100000000; i = i + 1) {
		s = s + i;
		if (s > 1000000000) {
			s = s - 1000000000;
		}
	}
	print(s);
	return s;
}
`

// hotLoopLine returns the 1-based source line of the loop-body
// statement, so the benchmarks break where every iteration stops.
func hotLoopLine(b *testing.B) int {
	b.Helper()
	for i, l := range strings.Split(hotLoopSrc, "\n") {
		if strings.Contains(l, "s = s + i") {
			return i + 1
		}
	}
	b.Fatal("loop body line not found")
	return 0
}

// BenchmarkContinueToBreakpoint measures resuming to a breakpoint in a
// hot loop body: one stop per loop iteration, so the per-instruction
// stop check dominates. MInstr/s is machine instructions executed per
// second of benchmark time.
func BenchmarkContinueToBreakpoint(b *testing.B) {
	res, err := compile.Compile("hot.mc", hotLoopSrc, compile.O2())
	if err != nil {
		b.Fatal(err)
	}
	line := hotLoopLine(b)

	b.ReportAllocs()
	newSession := func() *debugger.Debugger {
		d, err := debugger.New(res)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.BreakAtLine(line); err != nil {
			b.Fatal(err)
		}
		// Long -benchtime runs push one session far past the default
		// step budget; the budget itself is benchmarked elsewhere.
		d.VM.MaxSteps = 1 << 62
		return d
	}
	d := newSession()
	var instr, prev int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp, err := d.Continue()
		if err != nil {
			b.Fatal(err)
		}
		instr += d.VM.Steps - prev
		prev = d.VM.Steps
		if bp == nil {
			d = newSession()
			prev = 0
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "MInstr/s")
}

// BenchmarkRunToCompletion measures straight-line execution (Run to
// halt, no breakpoints): the pure dispatch overhead, with no stop
// positions armed.
func BenchmarkRunToCompletion(b *testing.B) {
	src := `int main() {
	int i;
	int s = 0;
	for (i = 0; i < 300000; i = i + 1) {
		s = s + i;
	}
	return s;
}
`
	res, err := compile.Compile("run.mc", src, compile.O2())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var instr int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := vm.New(res.Mach)
		if err != nil {
			b.Fatal(err)
		}
		if err := v.Run(); err != nil {
			b.Fatal(err)
		}
		instr += v.Steps
	}
	b.StopTimer()
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "MInstr/s")
}

// BenchmarkRunWorkloads runs each workload to exit at O2 and at
// O2NoRegAlloc, the two configurations the mcperf harness workload runs
// (rows BenchmarkRunWorkloads/<config>/<workload>). Unlike the hot loops
// above, real code calls and returns, so these rows measure the per-call
// cost too; run with -benchmem to see allocs/op.
func BenchmarkRunWorkloads(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  compile.Config
	}{{"O2", compile.O2()}, {"O2NoRegAlloc", compile.O2NoRegAlloc()}} {
		b.Run(c.name, func(b *testing.B) {
			for _, name := range bench.Names {
				res, err := bench.CompileWorkload(name, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					var instr int64
					for i := 0; i < b.N; i++ {
						m, err := bench.RunWorkload(res)
						if err != nil {
							b.Fatal(err)
						}
						instr += m.Steps
					}
					b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "MInstr/s")
				})
			}
		})
	}
}

// BenchmarkOpenSession opens a debug session on compress, the workload
// with the most global data, and closes it, as the server's open-session
// and close do: debugger.NewShared, then VM.Release. resident opens on a
// program whose sessions have run before; fresh opens on a program just
// decoded from its spill bytes (the decode is not timed), so nothing of
// it is predecoded yet.
func BenchmarkOpenSession(b *testing.B) {
	res, err := bench.CompileWorkload("compress", compile.O2())
	if err != nil {
		b.Fatal(err)
	}
	spill, err := compile.EncodeSpill(compile.O2(), res)
	if err != nil {
		b.Fatal(err)
	}
	open := func(b *testing.B, res *compile.Result, set *core.AnalysisSet) {
		d, err := debugger.NewShared(res, set)
		if err != nil {
			b.Fatal(err)
		}
		d.VM.Release()
	}
	b.Run("resident", func(b *testing.B) {
		set := core.NewAnalysisSet()
		if _, err := bench.RunWorkload(res); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			open(b, res, set)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh, _, _, _, err := compile.DecodeSpill(spill)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			open(b, fresh, core.NewAnalysisSet())
		}
	})
}
