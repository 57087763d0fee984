package compile

// Per-function pipeline driver: the one way a program is compiled
// (Compile is this driver on one worker).
//
// The front end (parse + check + IR build) is whole-program and runs
// serially; everything after it — opt.RunFunc → lower.LowerFunc →
// regalloc.AllocateFunc → sched.ScheduleFunc — consumes and produces one
// function at a time with no shared mutable state, so Pipeline fans
// functions out across a bounded worker pool and reassembles the machine
// program in IR order. Reassembly is deterministic: the canonical rendering
// of the result is the same for every worker count and interleaving,
// because each function's machine code depends only on its own IR and the
// immutable global environment, and the program is stitched in
// function-declaration order. TestPipelineMatchesSerial holds every mode
// to a pass-major reference kept in the tests.
//
// With a FuncCache attached the same driver is incremental: each function's
// back end is keyed by FuncKeyOf (a content hash of the function's checked,
// freshly built IR plus the global environment and Config), compiled on a
// miss and taken from the cache on a hit — so a one-function edit to an
// N-function program runs the back end exactly once. Either way the
// program gets its own Func header over the cached body (FuncCache).

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mach"
	"repro/internal/opt"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/sem"
)

// funcEntryOverhead is the accounted per-entry bookkeeping cost beyond the
// body (key, store entry, list element).
const funcEntryOverhead = 128

// CompileFunc runs the per-function back end on one freshly built IR
// function: optimization, code selection, then (per cfg) register
// allocation and scheduling. It mutates f in place (optimization rewrites
// the IR) and touches no other function, so distinct functions may be
// compiled concurrently.
func CompileFunc(f *ir.Func, cfg Config) (*mach.Func, error) {
	opt.RunFunc(f, cfg.Opt)
	mf := lower.LowerFunc(f)
	if cfg.RegAlloc {
		if err := regalloc.AllocateFunc(mf); err != nil {
			return nil, err
		}
	}
	if cfg.Sched {
		sched.ScheduleFunc(mf)
	}
	return mf, nil
}

// PipelineConfig tunes a Pipeline.
type PipelineConfig struct {
	// Workers bounds back-end concurrency; <= 0 means runtime.GOMAXPROCS(0).
	// The bound is shared across concurrent Compile calls on one Pipeline,
	// so a server compiling many programs at once still runs at most Workers
	// function back ends simultaneously.
	Workers int
	// Funcs, when non-nil, enables incremental recompilation through the
	// given per-function cache. A cache may be shared across Pipelines.
	Funcs *FuncCache
}

// Metrics describes one Compile call.
type Metrics struct {
	Funcs         int           // functions in the program
	FuncsCompiled int           // back ends actually run
	FuncsReused   int           // functions stitched from the cache
	Duration      time.Duration // wall time of the whole Compile
}

// Pipeline compiles programs function-by-function over a bounded worker
// pool, optionally reusing per-function artifacts from a FuncCache. It is
// safe for concurrent use.
type Pipeline struct {
	workers int
	slots   chan struct{}
	funcs   *FuncCache

	compiles      atomic.Int64
	funcsCompiled atomic.Int64
	funcsReused   atomic.Int64
	compileNanos  atomic.Int64
}

// NewPipeline creates a pipeline.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Pipeline{workers: w, slots: make(chan struct{}, w), funcs: cfg.Funcs}
}

// Workers returns the pool bound.
func (p *Pipeline) Workers() int { return p.workers }

// FuncCache returns the attached per-function cache, or nil.
func (p *Pipeline) FuncCache() *FuncCache { return p.funcs }

// PipelineStats are cumulative over the pipeline's lifetime.
type PipelineStats struct {
	Compiles      int64
	FuncsCompiled int64
	FuncsReused   int64
	CompileNanos  int64
}

// Stats returns the lifetime counters.
func (p *Pipeline) Stats() PipelineStats {
	return PipelineStats{
		Compiles:      p.compiles.Load(),
		FuncsCompiled: p.funcsCompiled.Load(),
		FuncsReused:   p.funcsReused.Load(),
		CompileNanos:  p.compileNanos.Load(),
	}
}

// Compile runs the full pipeline over MiniC source text. The Result's
// canonical machine-code rendering does not depend on the worker count or
// on which functions were stitched from the cache. Result.IR is populated
// only when every function's back end actually ran (FuncsReused == 0); a
// stitched program carries no optimized IR, matching DecodeSpill.
func (p *Pipeline) Compile(name, src string, cfg Config) (*Result, Metrics, error) {
	start := time.Now()
	sp, err := sem.CheckSource(name, src)
	if err != nil {
		return nil, Metrics{}, err
	}
	prog := ir.Build(sp)
	n := len(prog.Funcs)
	m := Metrics{Funcs: n}

	var sig GlobalsSig
	if p.funcs != nil {
		sig = GlobalsSigOf(prog, cfg)
	}

	mfs := make([]*mach.Func, n)
	reused := make([]bool, n)
	errs := make([]error, n)
	if p.workers == 1 || n <= 1 {
		for i, f := range prog.Funcs {
			mfs[i], reused[i], errs[i] = p.compileOneSafe(f, sig, cfg)
		}
	} else {
		var wg sync.WaitGroup
		for i, f := range prog.Funcs {
			wg.Add(1)
			go func(i int, f *ir.Func) {
				defer wg.Done()
				p.slots <- struct{}{}
				defer func() { <-p.slots }()
				mfs[i], reused[i], errs[i] = p.compileOneSafe(f, sig, cfg)
			}(i, f)
		}
		wg.Wait()
	}

	// First error in function order, whatever the interleaving.
	for _, err := range errs {
		if err != nil {
			return nil, m, err
		}
	}

	mp := lower.NewProgram(prog)
	mp.Funcs = mfs
	for _, r := range reused {
		if r {
			m.FuncsReused++
		} else {
			m.FuncsCompiled++
		}
	}
	m.Duration = time.Since(start)
	p.compiles.Add(1)
	p.funcsCompiled.Add(int64(m.FuncsCompiled))
	p.funcsReused.Add(int64(m.FuncsReused))
	p.compileNanos.Add(int64(m.Duration))

	res := &Result{File: sp.File.Source, Sem: sp, Mach: mp}
	if m.FuncsReused == 0 {
		res.IR = prog
	}
	return res, m, nil
}

// compileOneSafe runs compileOne with panic containment: a panic in one
// function's back end — a compiler bug, or the "compile.func" fault
// point's injected panic — surfaces as that function's compile error
// instead of killing the worker goroutine (and with it the whole
// process). The pipeline then fails the one Compile call; the service
// maps it to a compile-error response and stays up.
func (p *Pipeline) compileOneSafe(f *ir.Func, sig GlobalsSig, cfg Config) (mf *mach.Func, reused bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			mf, reused = nil, false
			err = fmt.Errorf("compile: panic compiling %s: %v", f.Name, r)
		}
	}()
	if err := fault.Check("compile.func"); err != nil {
		return nil, false, fmt.Errorf("compile: %s: %w", f.Name, err)
	}
	return p.compileOne(f, sig, cfg)
}

// compileOne compiles or reuses one function. f must be freshly built
// (pre-optimization) IR: the cache key is computed before the back end
// mutates it, and on a cache hit f is left untouched. The Func returned
// binds the cached body to f's name, declaration and globals.
func (p *Pipeline) compileOne(f *ir.Func, sig GlobalsSig, cfg Config) (*mach.Func, bool, error) {
	if p.funcs == nil {
		mf, err := CompileFunc(f, cfg)
		return mf, false, err
	}
	key := FuncKeyOf(f, sig)
	// The body is computed at most once across concurrent callers; hit
	// reports that compute was skipped.
	body, hit, err := p.funcs.s.Get(key, key.String, func() (*mach.Func, int64, error) {
		mf, err := CompileFunc(f, cfg)
		if err != nil {
			return nil, 0, err
		}
		mf.Decl, mf.Globals = nil, nil // an entry must not pin this compile's front end
		return mf, sizeOfBody(mf) + funcEntryOverhead, nil
	})
	if err != nil {
		return nil, false, err
	}
	mf := *body
	mf.Name, mf.Decl, mf.Globals = f.Name, f.Decl, f.Globals
	return &mf, hit, nil
}
