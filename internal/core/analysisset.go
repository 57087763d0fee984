package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mach"
)

// AnalysisSet holds the per-function analyses of one compiled program so
// that any number of debug sessions sharing a compile.Result reuse one
// Analysis per function instead of re-solving the data-flow problems.
// Beyond the program, the solved facts follow the machine body: every
// set in the process that asks about a Func over a body whose facts some
// reachable set holds shares them (see bodies), so a one-function edit
// analyses only the function it recompiled.
// All methods are safe for concurrent use; an Analysis is immutable once
// built, so the returned pointers may be shared freely.
type AnalysisSet struct {
	mu    sync.Mutex
	m     map[*mach.Func]*analysisCell
	held  *holds
	built atomic.Int64
	bytes atomic.Int64

	// costHook, when set, is told the byte cost of each analysis the set
	// reaches, built or shared. The artifact store registers itself here
	// so analyses are charged against — and evicted in lockstep with —
	// their artifact. buildHook, when set, is told of each build the set
	// runs.
	hookMu    sync.Mutex
	costHook  func(int64)
	buildHook func()
}

type analysisCell struct {
	once sync.Once
	a    *Analysis
}

// NewAnalysisSet returns an empty set using default classifier options.
func NewAnalysisSet() *AnalysisSet {
	h := &holds{}
	runtime.SetFinalizer(h, (*holds).release)
	return &AnalysisSet{m: map[*mach.Func]*analysisCell{}, held: h}
}

// Of returns the analysis for f, building it on first use unless the
// facts of f's body are held already. Concurrent callers for the same
// function, or for Funcs over the same body, block on a single build.
// The set is charged for every analysis it reaches, shared or not.
func (s *AnalysisSet) Of(f *mach.Func) *Analysis {
	s.mu.Lock()
	c, ok := s.m[f]
	if !ok {
		c = &analysisCell{}
		s.m[f] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		var built bool
		c.a, built = s.held.share(f)
		cost := c.a.SizeBytes()
		s.bytes.Add(cost)
		s.hookMu.Lock()
		costHook, buildHook := s.costHook, s.buildHook
		s.hookMu.Unlock()
		if built {
			s.built.Add(1)
			if buildHook != nil {
				buildHook()
			}
		}
		if costHook != nil {
			costHook(cost)
		}
	})
	return c.a
}

// bodies maps a machine body, named by its entry block, to the facts
// built for it and the number of references sets hold to them. A set's
// references are released when the set is collected, so the registry
// keeps facts only while some reachable set holds them (the function
// cache holds bodies, never facts), and a body asked for after that is
// analysed again.
var bodies = struct {
	mu sync.Mutex
	m  map[*mach.Block]*bodyFacts
}{m: map[*mach.Block]*bodyFacts{}}

type bodyFacts struct {
	facts *facts
	refs  int
}

// holds lists the bodies whose facts one set holds a reference to. Only
// its set points to it and it points to no set, so its finalizer runs
// once the set is unreachable, whatever cycles the set is part of.
type holds struct {
	mu   sync.Mutex
	keys []*mach.Block
}

// share returns f's analysis over the facts of f's body, taking them from
// bodies when some set holds them and building them otherwise, and takes
// a reference to them for h; built reports that this call ran the build.
func (h *holds) share(f *mach.Func) (a *Analysis, built bool) {
	f.Load()
	if f.Entry == nil {
		return Analyze(f), true
	}
	bodies.mu.Lock()
	b := bodies.m[f.Entry]
	if b == nil {
		b = &bodyFacts{facts: &facts{}}
		bodies.m[f.Entry] = b
	}
	b.refs++
	bodies.mu.Unlock()
	h.mu.Lock()
	h.keys = append(h.keys, f.Entry)
	h.mu.Unlock()
	a = &Analysis{Fn: f, facts: b.facts}
	b.facts.once.Do(func() {
		a.build()
		built = true
	})
	return a, built
}

// release drops h's references, and the registry's entry of every body
// no set holds any more.
func (h *holds) release() {
	bodies.mu.Lock()
	for _, k := range h.keys {
		b := bodies.m[k]
		if b.refs--; b.refs == 0 {
			delete(bodies.m, k)
		}
	}
	bodies.mu.Unlock()
}

// SetCostHook registers fn to be called with the byte cost of every
// analysis the set reaches after this point, built or shared (at most
// one hook is active). The artifact store uses it to charge analyses
// against the same memory budget as their artifact.
func (s *AnalysisSet) SetCostHook(fn func(int64)) {
	s.hookMu.Lock()
	s.costHook = fn
	s.hookMu.Unlock()
}

// SetBuildHook registers fn to be called once for every analysis the set
// builds after this point (at most one hook is active); an analysis the
// set shares is not reported. The artifact store counts builds with it.
func (s *AnalysisSet) SetBuildHook(fn func()) {
	s.hookMu.Lock()
	s.buildHook = fn
	s.hookMu.Unlock()
}

// Precompute builds the analyses for every function of p with a bounded
// worker pool, so sessions opened afterwards never pay the analysis cost
// on their first breakpoint. workers <= 0 selects GOMAXPROCS. With one
// worker (or one function) it builds inline, with no goroutine or channel
// hand-off per function.
func (s *AnalysisSet) Precompute(p *mach.Program, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := len(p.Funcs); workers > n {
		workers = n
	}
	if workers <= 1 {
		for _, f := range p.Funcs {
			s.Of(f)
		}
		return
	}
	work := make(chan *mach.Func)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range work {
				s.Of(f)
			}
		}()
	}
	for _, f := range p.Funcs {
		work <- f
	}
	close(work)
	wg.Wait()
}

// Built returns how many analyses this set has built itself: each
// function counts at most once, however many sessions share it, and a
// function whose body's facts the set took from another set counts not
// at all.
func (s *AnalysisSet) Built() int64 { return s.built.Load() }

// Bytes returns the estimated resident size of every analysis the set
// has reached so far, built or shared (see Analysis.SizeBytes).
func (s *AnalysisSet) Bytes() int64 { return s.bytes.Load() }
