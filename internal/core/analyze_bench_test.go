package core_test

import (
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/mach"
	"repro/internal/randprog"
)

// randprogFuncs compiles randprog seeds 1, 2, … at O2, skipping any that
// fail to compile, until it holds at least n functions.
func randprogFuncs(tb testing.TB, n int) []*mach.Func {
	tb.Helper()
	var fns []*mach.Func
	for seed := int64(1); len(fns) < n; seed++ {
		if seed > 10*int64(n) {
			tb.Fatalf("only %d functions compiled from %d seeds", len(fns), seed-1)
		}
		res, err := compile.Compile(fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed), compile.O2())
		if err != nil {
			continue
		}
		fns = append(fns, res.Mach.Funcs...)
	}
	return fns
}

var sinkAnalysis *core.Analysis

// BenchmarkAnalyzeRandprog measures building one function's analysis
// (debug table, effect cache, data-flow solution, breakpoint tables and
// static texts) over the first 400 functions of the randprog corpus at
// O2. One op is one function, cycling through the set, so ns/op and
// allocs/op are per function.
func BenchmarkAnalyzeRandprog(b *testing.B) {
	fns := randprogFuncs(b, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkAnalysis = core.Analyze(fns[i%len(fns)])
	}
}
