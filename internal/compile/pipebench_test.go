package compile_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/randprog"
)

// Pipeline benchmarks: cold serial vs cold parallel vs incremental
// one-function edit, over the 8-workload bench corpus at O2. These are the
// source of BENCH_compile.json.

func compileCorpus(b *testing.B, p *compile.Pipeline) {
	b.Helper()
	cfg := compile.O2()
	for _, name := range bench.Names {
		if _, _, err := p.Compile(name, bench.MustSource(name), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileColdSerial compiles the whole corpus through the
// pipeline with one worker and no function cache — the serial baseline.
func BenchmarkCompileColdSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		compileCorpus(b, compile.NewPipeline(compile.PipelineConfig{Workers: 1}))
	}
}

// BenchmarkCompileColdParallel8 compiles the whole corpus with the
// per-function back ends fanned out over 8 workers.
func BenchmarkCompileColdParallel8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		compileCorpus(b, compile.NewPipeline(compile.PipelineConfig{Workers: 8}))
	}
}

// BenchmarkCompileIncrementalEdit measures the one-function-edit loop: the
// corpus is warm in the function cache and each iteration recompiles "li"
// with one new function appended. The benchmark fails unless exactly one
// back end runs per edit — it enforces the incremental contract, not just
// its speed.
func BenchmarkCompileIncrementalEdit(b *testing.B) {
	cfg := compile.O2()
	pipe := compile.NewPipeline(compile.PipelineConfig{
		Workers: 8,
		Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{Shards: 8}),
	})
	compileCorpus(b, pipe)
	src := bench.MustSource("li")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edited := src + fmt.Sprintf("\nint probe(int x) { return x + %d; }\n", i)
		_, m, err := pipe.Compile("li", edited, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if m.FuncsCompiled != 1 {
			b.Fatalf("one-function edit compiled %d funcs, want 1 (reused %d of %d)",
				m.FuncsCompiled, m.FuncsReused, m.Funcs)
		}
	}
}

// BenchmarkCompileWarmStitch measures a fully warm recompile (no edit):
// every function of every workload stitched from the cache.
func BenchmarkCompileWarmStitch(b *testing.B) {
	pipe := compile.NewPipeline(compile.PipelineConfig{
		Workers: 8,
		Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{Shards: 8}),
	})
	compileCorpus(b, pipe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileCorpus(b, pipe)
	}
}

// BenchmarkCompileRandprogUnit replays the unit of mcperf's compile
// workload ("edit, compile, first stop"): a cold O2 compile of a randprog
// program through a function-cached pipeline, then three one-function
// edits, each followed by building every function's analyses. A cold
// compile loads the optimizer; the edits load the front end and the cache.
func BenchmarkCompileRandprogUnit(b *testing.B) {
	cfg := compile.O2()
	// randprog now and then emits a program the back end rejects; use the
	// first eight seeds that compile, as mcperf skips to the next seed.
	var progs []string
	for seed := int64(1); len(progs) < 8; seed++ {
		src := randprog.Gen(seed)
		if _, err := compile.Compile("rand.mc", src, cfg); err == nil {
			progs = append(progs, src)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe := compile.NewPipeline(compile.PipelineConfig{
			Workers: 1,
			Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{}),
		})
		src := progs[i%len(progs)]
		for v := 0; v <= 3; v++ {
			if v > 0 {
				src += fmt.Sprintf("\nint edit%d(int x) { return x + %d; }\n", v, i+v)
			}
			res, m, err := pipe.Compile("rand.mc", src, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if v > 0 && m.FuncsCompiled != 1 {
				b.Fatalf("one-function edit compiled %d funcs, want 1", m.FuncsCompiled)
			}
			core.NewAnalysisSet().Precompute(res.Mach, 1)
		}
	}
}
