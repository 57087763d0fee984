// Execution hot-path benchmarks: continue-to-breakpoint and
// run-to-completion throughput on the predecoded bitmap engine, and
// run-to-exit throughput of every workload.
package repro

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
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

// BenchmarkRunWorkloads runs each workload at O2 to exit. Unlike the hot
// loops above, real code calls and returns, so this row measures the
// per-call cost too; run with -benchmem to see allocs/op.
func BenchmarkRunWorkloads(b *testing.B) {
	for _, name := range bench.Names {
		res, err := bench.CompileWorkload(name, compile.O2())
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
}
