// Package fault is the process-wide fault injector behind the chaos
// harness: named fault points threaded through the service's failure
// surfaces (spill-tier I/O in internal/store, per-function back ends in
// internal/compile, response writes in internal/server) that misbehave on
// demand — returning errors, stalling, panicking, or truncating payloads —
// according to rules armed by tests.
//
// The injector is a no-op by default. The disabled fast path is one atomic
// load (no map lookup, no lock), so production binaries pay nothing for
// carrying the points; the chaos soak's companion benchmark record
// (BENCH_fault.json) holds the hot paths to within noise of the
// injector-free seed numbers.
//
// Rules are deterministic given the seed passed to Enable: every firing
// decision draws from one seeded PRNG, so a failing chaos run reproduces
// from its logged seed (modulo goroutine interleaving, which reorders
// draws but not the schedule that armed them).
//
// Point names are dot-separated, lowercase, and owned by the package that
// calls them; DESIGN.md inventories every point and the invariant its
// callers preserve when it fires.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the base error of injected failures: errors returned by
// Check for a rule with no Err of its own wrap it, so callers (and tests)
// can tell injected faults from real ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// InjectedPanic is the value a Panic rule throws, so recovery paths can
// recognize (and tests can assert on) an injected panic.
type InjectedPanic struct{ Point string }

func (p *InjectedPanic) String() string { return "injected panic at " + p.Point }

// Rule describes how one named point misbehaves while armed.
type Rule struct {
	// Prob is the chance the rule fires per eligible hit, in (0, 1];
	// <= 0 means 1 (every hit).
	Prob float64
	// After exempts the first After hits of the point.
	After int64
	// Times caps how many times the rule fires; 0 means unlimited.
	Times int64
	// Delay stalls the caller before the outcome applies (with a zero
	// Err and no Panic, the fault is the stall alone).
	Delay time.Duration
	// Err is the error Check returns when the rule fires; nil selects a
	// point-naming wrap of ErrInjected. Ignored by Cut points.
	Err error
	// Panic makes Check panic with *InjectedPanic instead of returning.
	Panic bool
	// CutTo is the fraction of the payload Cut keeps when the rule
	// fires, in [0, 1); <= 0 means 0.5.
	CutTo float64
}

type point struct {
	rule  Rule
	hits  int64
	fired int64
}

var (
	enabled atomic.Bool

	mu     sync.Mutex
	points map[string]*point
	rng    *rand.Rand
)

// Enable arms the injector with a fresh, empty rule set and a PRNG seeded
// by seed. Points without a rule keep behaving normally; arm them with
// Set.
func Enable(seed int64) {
	mu.Lock()
	points = map[string]*point{}
	rng = rand.New(rand.NewSource(seed))
	mu.Unlock()
	enabled.Store(true)
}

// Disable disarms the injector and drops every rule and counter. All
// points revert to the zero-overhead fast path.
func Disable() {
	enabled.Store(false)
	mu.Lock()
	points = nil
	rng = nil
	mu.Unlock()
}

// Set arms (or replaces) the rule for a point, resetting its counters.
// It is a no-op while the injector is disabled.
func Set(name string, r Rule) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		return
	}
	points[name] = &point{rule: r}
}

// Clear disarms one point, keeping the injector enabled.
func Clear(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(points, name)
}

// Fired returns how many times the named point's rule has fired since it
// was Set.
func Fired(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.fired
	}
	return 0
}

// decide evaluates a point against its rule, updating counters. It never
// sleeps or panics itself; the caller applies the outcome outside the
// lock.
func decide(name string) (fire bool, r Rule) {
	mu.Lock()
	defer mu.Unlock()
	p := points[name]
	if p == nil {
		return false, Rule{}
	}
	p.hits++
	if p.hits <= p.rule.After {
		return false, Rule{}
	}
	if p.rule.Times > 0 && p.fired >= p.rule.Times {
		return false, Rule{}
	}
	if p.rule.Prob > 0 && p.rule.Prob < 1 && rng.Float64() >= p.rule.Prob {
		return false, Rule{}
	}
	p.fired++
	return true, p.rule
}

// Check evaluates the named point: nil when the injector is disabled, the
// point is unarmed, or its rule elects not to fire; otherwise it applies
// the rule — stalling Delay, then panicking (Panic) or returning the
// rule's error. A rule with a Delay but no Err and no Panic is a pure
// stall: Check sleeps and returns nil, modeling a slow-but-correct
// resource. The disabled path is a single atomic load.
func Check(name string) error {
	if !enabled.Load() {
		return nil
	}
	fire, r := decide(name)
	if !fire {
		return nil
	}
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r.Panic {
		panic(&InjectedPanic{Point: name})
	}
	if r.Err != nil {
		return r.Err
	}
	if r.Delay > 0 {
		return nil
	}
	return fmt.Errorf("%s: %w", name, ErrInjected)
}

// Cut evaluates the named point against a payload about to be written:
// normally it returns data unchanged; when the point's rule fires it
// returns a truncated prefix (CutTo of the length), modeling a partial
// write that "succeeds" but persists garbage. The disabled path is a
// single atomic load.
func Cut(name string, data []byte) []byte {
	if !enabled.Load() {
		return data
	}
	fire, r := decide(name)
	if !fire {
		return data
	}
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	f := r.CutTo
	if f <= 0 {
		f = 0.5
	}
	if f >= 1 {
		return data
	}
	return data[:int(f*float64(len(data)))]
}
