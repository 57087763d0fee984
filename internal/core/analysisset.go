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
// All methods are safe for concurrent use; an Analysis is immutable once
// built, so the returned pointers may be shared freely.
type AnalysisSet struct {
	mu    sync.Mutex
	m     map[*mach.Func]*analysisCell
	built atomic.Int64
	bytes atomic.Int64

	// costHook, when set, is told the byte cost of each newly built
	// analysis. The artifact store registers itself here so analyses are
	// charged against — and evicted in lockstep with — their artifact.
	hookMu   sync.Mutex
	costHook func(int64)
}

type analysisCell struct {
	once sync.Once
	a    *Analysis
}

// NewAnalysisSet returns an empty set using default classifier options.
func NewAnalysisSet() *AnalysisSet { return &AnalysisSet{m: map[*mach.Func]*analysisCell{}} }

// Of returns the analysis for f, building it on first use. Concurrent
// callers for the same function block on a single build.
func (s *AnalysisSet) Of(f *mach.Func) *Analysis {
	s.mu.Lock()
	c, ok := s.m[f]
	if !ok {
		c = &analysisCell{}
		s.m[f] = c
	}
	s.mu.Unlock()
	c.once.Do(func() {
		c.a = Analyze(f)
		s.built.Add(1)
		cost := c.a.SizeBytes()
		s.bytes.Add(cost)
		s.hookMu.Lock()
		hook := s.costHook
		s.hookMu.Unlock()
		if hook != nil {
			hook(cost)
		}
	})
	return c.a
}

// SetCostHook registers fn to be called with the byte cost of every
// analysis built after this point (at most one hook is active). The
// artifact store uses it to charge analyses against the same memory
// budget as their artifact.
func (s *AnalysisSet) SetCostHook(fn func(int64)) {
	s.hookMu.Lock()
	s.costHook = fn
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

// Built returns how many analyses this set has constructed (each function
// counts once, however many sessions share it).
func (s *AnalysisSet) Built() int64 { return s.built.Load() }

// Bytes returns the estimated resident size of every analysis built so
// far (see Analysis.SizeBytes).
func (s *AnalysisSet) Bytes() int64 { return s.bytes.Load() }
