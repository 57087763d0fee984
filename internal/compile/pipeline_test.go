package compile_test

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/sem"
)

// testConfigs are the three measured pipeline configurations: full
// optimization, the Figure 5(a) no-regalloc configuration, and O0.
func testConfigs() map[string]compile.Config {
	return map[string]compile.Config{
		"O2":           compile.O2(),
		"O2NoRegAlloc": compile.O2NoRegAlloc(),
		"O0":           compile.O0(),
	}
}

func machDigest(t *testing.T, res *compile.Result) [sha256.Size]byte {
	t.Helper()
	if res == nil || res.Mach == nil {
		t.Fatal("nil result")
	}
	return sha256.Sum256([]byte(res.Mach.String()))
}

// passMajor is the pass-major reference compile: the front end, then
// each back-end pass over every function before the next pass starts
// (opt all, lower all, regalloc all, sched all). Pipeline instead runs a
// function's whole back end at once, on any worker; per-function purity
// is what makes the two agree, and TestPipelineMatchesSerial checks it.
func passMajor(t testing.TB, name, src string, cfg compile.Config) *compile.Result {
	t.Helper()
	sp, err := sem.CheckSource(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	prog := ir.Build(sp)
	for _, f := range prog.Funcs {
		opt.RunFunc(f, cfg.Opt)
	}
	mp := lower.NewProgram(prog)
	for _, f := range prog.Funcs {
		mp.Funcs = append(mp.Funcs, lower.LowerFunc(f))
	}
	if cfg.RegAlloc {
		for _, f := range mp.Funcs {
			if err := regalloc.AllocateFunc(f); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	if cfg.Sched {
		for _, f := range mp.Funcs {
			sched.ScheduleFunc(f)
		}
	}
	return &compile.Result{File: sp.File.Source, Sem: sp, IR: prog, Mach: mp}
}

// TestPipelineMatchesSerial asserts that every pipeline mode — serial
// (Compile), parallel, and incremental (cold, then cache-stitched) —
// produces machine programs whose canonical rendering is byte-identical
// to the pass-major reference, across all bench workloads and all three
// configurations.
func TestPipelineMatchesSerial(t *testing.T) {
	for cfgName, cfg := range testConfigs() {
		par := compile.NewPipeline(compile.PipelineConfig{Workers: 8})
		inc := compile.NewPipeline(compile.PipelineConfig{
			Workers: 8,
			Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{Shards: 4}),
		})
		for _, name := range bench.Names {
			src := bench.MustSource(name)
			wantSum := machDigest(t, passMajor(t, name, src, cfg))

			serial, err := compile.Compile(name, src, cfg)
			if err != nil {
				t.Fatalf("%s/%s: serial: %v", name, cfgName, err)
			}
			if machDigest(t, serial) != wantSum {
				t.Errorf("%s/%s: serial digest differs from pass-major reference", name, cfgName)
			}
			if serial.IR == nil {
				t.Errorf("%s/%s: serial result lost its optimized IR", name, cfgName)
			}

			got, m, err := par.Compile(name, src, cfg)
			if err != nil {
				t.Fatalf("%s/%s: parallel: %v", name, cfgName, err)
			}
			if machDigest(t, got) != wantSum {
				t.Errorf("%s/%s: parallel digest differs from pass-major reference", name, cfgName)
			}
			if m.FuncsCompiled != m.Funcs || m.FuncsReused != 0 {
				t.Errorf("%s/%s: parallel metrics = %+v, want all compiled", name, cfgName, m)
			}

			// Incremental, cold: populates the cache; must still match.
			cold, m, err := inc.Compile(name, src, cfg)
			if err != nil {
				t.Fatalf("%s/%s: incremental cold: %v", name, cfgName, err)
			}
			if machDigest(t, cold) != wantSum {
				t.Errorf("%s/%s: incremental cold digest differs from pass-major reference", name, cfgName)
			}
			if m.FuncsReused != 0 {
				t.Errorf("%s/%s: cold incremental reused %d funcs", name, cfgName, m.FuncsReused)
			}

			// Incremental, warm: everything stitched from the cache.
			warm, m, err := inc.Compile(name, src, cfg)
			if err != nil {
				t.Fatalf("%s/%s: incremental warm: %v", name, cfgName, err)
			}
			if machDigest(t, warm) != wantSum {
				t.Errorf("%s/%s: incremental warm digest differs from pass-major reference", name, cfgName)
			}
			if m.FuncsReused != m.Funcs || m.FuncsCompiled != 0 {
				t.Errorf("%s/%s: warm metrics = %+v, want all reused", name, cfgName, m)
			}
			if warm.IR != nil {
				t.Errorf("%s/%s: stitched result carries optimized IR", name, cfgName)
			}
		}
	}
}

// TestOneFunctionEdit asserts the incremental contract: editing one
// function of a workload recompiles exactly that one function, and the
// result matches the pass-major reference compile of the edited source.
func TestOneFunctionEdit(t *testing.T) {
	cfg := compile.O2()
	pipe := compile.NewPipeline(compile.PipelineConfig{
		Workers: 4,
		Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{Shards: 4}),
	})
	src := bench.MustSource("li")
	if _, m, err := pipe.Compile("li", src, cfg); err != nil {
		t.Fatal(err)
	} else if m.FuncsReused != 0 {
		t.Fatalf("cold compile reused %d funcs", m.FuncsReused)
	}

	// Append a new function and call no one: every existing function's IR
	// and the global environment are unchanged, so only the new function
	// compiles.
	edited := src + "\nint pipeline_probe(int x) { int y; y = x * 3 + 1; return y; }\n"
	res, m, err := pipe.Compile("li", edited, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.FuncsCompiled != 1 {
		t.Errorf("one-function edit compiled %d funcs, want 1 (reused %d of %d)",
			m.FuncsCompiled, m.FuncsReused, m.Funcs)
	}
	if m.FuncsReused != m.Funcs-1 {
		t.Errorf("one-function edit reused %d funcs, want %d", m.FuncsReused, m.Funcs-1)
	}
	if machDigest(t, res) != machDigest(t, passMajor(t, "li", edited, cfg)) {
		t.Error("stitched program differs from reference compile of edited source")
	}
}

// TestRandprogEditTraffic replays the traffic of mcperf's compile workload
// (BenchmarkCompileRandprogUnit's pattern) on randprog seeds 1-100: a cold
// O2 compile through a function-cached pipeline, then three edits that
// each append one function. Every edit must run exactly one back end, and
// every compile must match the pass-major reference, at 1 and 2 workers.
// Programs the back end rejects are skipped, as mcperf skips them.
func TestRandprogEditTraffic(t *testing.T) {
	cfg := compile.O2()
	seeds := int64(100)
	if testing.Short() {
		seeds = 10
	}
	skipped := 0
	for seed := int64(1); seed <= seeds; seed++ {
		src := randprog.Gen(seed)
		if _, err := compile.Compile("rand.mc", src, cfg); err != nil {
			skipped++
			continue
		}
		versions := []string{src}
		for v := 1; v <= 3; v++ {
			src += fmt.Sprintf("\nint edit%d(int x) { return x + %d; }\n", v, int(seed)+v)
			versions = append(versions, src)
		}
		want := make([][sha256.Size]byte, len(versions))
		for v, vsrc := range versions {
			want[v] = machDigest(t, passMajor(t, "rand.mc", vsrc, cfg))
		}
		for _, workers := range []int{1, 2} {
			pipe := compile.NewPipeline(compile.PipelineConfig{
				Workers: workers,
				Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{}),
			})
			for v, vsrc := range versions {
				res, m, err := pipe.Compile("rand.mc", vsrc, cfg)
				if err != nil {
					t.Fatalf("seed %d workers %d version %d: %v", seed, workers, v, err)
				}
				if v > 0 && m.FuncsCompiled != 1 {
					t.Errorf("seed %d workers %d: edit %d compiled %d funcs, want 1 (reused %d of %d)",
						seed, workers, v, m.FuncsCompiled, m.FuncsReused, m.Funcs)
				}
				if machDigest(t, res) != want[v] {
					t.Errorf("seed %d workers %d version %d: differs from the pass-major reference", seed, workers, v)
				}
			}
		}
	}
	if skipped == int(seeds) {
		t.Fatal("the back end rejected every program")
	}
	t.Logf("%d of %d programs skipped: the back end rejects them", skipped, seeds)
}

// TestPipelineConcurrentStress drives one shared pipeline+cache from many
// goroutines over multiple workloads and configs, checking every result
// against the pass-major reference digest. Run under -race this is the worker-pool
// regression test; -count=2 exercises both cold and warm cache states
// within each run (the second round of each goroutine is warm).
func TestPipelineConcurrentStress(t *testing.T) {
	pipe := compile.NewPipeline(compile.PipelineConfig{
		Workers: 8,
		Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{Shards: 8}),
	})
	workloads := []string{"li", "compress", "ear", "eqntott"}
	want := map[string][sha256.Size]byte{}
	for cfgName, cfg := range testConfigs() {
		for _, name := range workloads {
			want[name+"/"+cfgName] = machDigest(t, passMajor(t, name, bench.MustSource(name), cfg))
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for cfgName, cfg := range testConfigs() {
		for _, name := range workloads {
			for round := 0; round < 2; round++ {
				wg.Add(1)
				go func(name, cfgName string, cfg compile.Config) {
					defer wg.Done()
					res, _, err := pipe.Compile(name, bench.MustSource(name), cfg)
					if err != nil {
						errc <- fmt.Errorf("%s/%s: %v", name, cfgName, err)
						return
					}
					if sha256.Sum256([]byte(res.Mach.String())) != want[name+"/"+cfgName] {
						errc <- fmt.Errorf("%s/%s: digest mismatch", name, cfgName)
					}
				}(name, cfgName, cfg)
			}
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestParallelSpeedup checks the ≥2x acceptance bar for 8 workers over the
// bench corpus. Wall-clock parallel speedup needs real CPUs; on boxes
// without them the bound is unverifiable and the test skips.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to measure parallel speedup, have %d", runtime.NumCPU())
	}
	cfg := compile.O2()
	serial := compile.NewPipeline(compile.PipelineConfig{Workers: 1})
	par := compile.NewPipeline(compile.PipelineConfig{Workers: 8})
	corpus := func(p *compile.Pipeline) {
		for _, name := range bench.Names {
			if _, _, err := p.Compile(name, bench.MustSource(name), cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up once (page in sources, JIT-ish effects), then measure best of 3.
	corpus(serial)
	corpus(par)
	best := func(p *compile.Pipeline) (d int64) {
		for i := 0; i < 3; i++ {
			s0 := p.Stats().CompileNanos
			corpus(p)
			if n := p.Stats().CompileNanos - s0; d == 0 || n < d {
				d = n
			}
		}
		return d
	}
	ds, dp := best(serial), best(par)
	t.Logf("serial %dms, parallel-8 %dms (%.2fx) on %d CPUs",
		ds/1e6, dp/1e6, float64(ds)/float64(dp), runtime.NumCPU())
	if float64(ds) < 2*float64(dp) {
		t.Errorf("parallel speedup %.2fx < 2x (serial %dms, parallel %dms)",
			float64(ds)/float64(dp), ds/1e6, dp/1e6)
	}
}
