// Package chaos is the chaos soak and the fault-schedule player behind
// it: the player arms randomized, seeded fault windows against the
// process-wide injector (internal/fault) while scripted clients hammer a
// live daemon, so the soak test can assert the service's core contract —
// under injected disk, compile, and connection failures the service may
// answer *unavailable* (typed errors, dropped connections) but never
// *wrong* (every successful response is byte-identical to a fault-free
// run, and the cycle accounting stays conserved). The scripted clients are
// internal/loadgen's, shared with the differential oracle's soak.
package chaos

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/loadgen"
)

// Event arms one fault point with one rule for a window of the schedule.
// Windows of the same point never overlap (NewSchedule generates them
// sequentially per point), so clearing at At+For cannot clobber a later
// event's rule.
type Event struct {
	At    time.Duration // offset from schedule start
	For   time.Duration // how long the rule stays armed
	Point string
	Rule  fault.Rule
}

// Schedule is a deterministic fault timeline: the same seed and total
// always produce the same events, so a failing soak reproduces from its
// logged seed.
type Schedule struct {
	Seed   int64
	Total  time.Duration
	Events []Event
}

// NewSchedule builds a randomized schedule of total length total from
// seed. The first ~60% of the timeline carries independent random fault
// windows per point (spill read/write/rename errors, partial spill
// writes, compile errors/panics/delays, connection drops and stalls);
// from 60% to 75% every spill I/O point fails with probability 1 — a
// guaranteed full disk outage long enough to trip the circuit breaker —
// and the final quarter is fault-free so the recovery probe can re-enable
// the tier before the soak's recovery phase asserts on it.
func NewSchedule(seed int64, total time.Duration) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed, Total: total}
	chaosEnd := total * 6 / 10

	// windows lays sequential random windows of one point's rule over
	// [0, chaosEnd).
	windows := func(point string, mk func() fault.Rule) {
		t := time.Duration(rng.Int63n(int64(total/10) + 1))
		for t < chaosEnd {
			d := total/40 + time.Duration(rng.Int63n(int64(total/10)+1))
			if t+d > chaosEnd {
				d = chaosEnd - t
			}
			s.Events = append(s.Events, Event{At: t, For: d, Point: point, Rule: mk()})
			t += d + total/40 + time.Duration(rng.Int63n(int64(total/10)+1))
		}
	}

	windows("store.spill.read", func() fault.Rule {
		return fault.Rule{Prob: 0.25 + rng.Float64()*0.5}
	})
	windows("store.spill.write", func() fault.Rule {
		return fault.Rule{Prob: 0.25 + rng.Float64()*0.5}
	})
	windows("store.spill.rename", func() fault.Rule {
		return fault.Rule{Prob: 0.2 + rng.Float64()*0.4}
	})
	windows("store.spill.partial", func() fault.Rule {
		return fault.Rule{Prob: 0.3 + rng.Float64()*0.4, CutTo: 0.2 + rng.Float64()*0.6}
	})
	windows("compile.func", func() fault.Rule {
		r := fault.Rule{Prob: 0.05 + rng.Float64()*0.15}
		switch {
		case rng.Float64() < 0.3:
			// Worker panic: must surface as a compile error, never kill
			// the process.
			r.Panic = true
		case rng.Float64() < 0.5:
			// Slow back end that still succeeds (delay-only rule).
			r.Delay = time.Duration(rng.Int63n(int64(2*time.Millisecond)) + 1)
		default:
			r.Err = fault.ErrInjected
		}
		return r
	})
	windows("server.conn.write", func() fault.Rule {
		if rng.Float64() < 0.5 {
			// Slow writer: a pure-Delay rule stalls the response write and
			// then lets it succeed (fault.Check's delay-only mode).
			return fault.Rule{Prob: 0.2, Delay: 5*time.Millisecond + time.Duration(rng.Int63n(int64(20*time.Millisecond)))}
		}
		// Dropped connection: the write "fails", Serve returns, the
		// client's sessions detach.
		return fault.Rule{Prob: 0.03 + rng.Float64()*0.07, Err: fault.ErrInjected}
	})

	// Guaranteed outage: every spill I/O path fails, unconditionally.
	// NotExist reads count as breaker successes, so a partial outage could
	// in principle never accumulate the consecutive failures the breaker
	// needs; all three at Prob 1 cannot be out-raced.
	outStart, outDur := chaosEnd, total*15/100
	for _, pt := range []string{"store.spill.read", "store.spill.write", "store.spill.rename"} {
		s.Events = append(s.Events, Event{At: outStart, For: outDur, Point: pt, Rule: fault.Rule{Prob: 1}})
	}

	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}

// Run plays the schedule in real time against the process-wide injector:
// it enables the injector with the schedule's seed, arms and clears each
// event at its offset, and disables the injector on return. It blocks
// until the timeline (through Total) has elapsed or stop is closed.
func (s Schedule) Run(stop <-chan struct{}) {
	fault.Enable(s.Seed)
	defer fault.Disable()

	type action struct {
		at    time.Duration
		arm   bool
		event Event
	}
	var timeline []action
	for _, ev := range s.Events {
		timeline = append(timeline, action{at: ev.At, arm: true, event: ev})
		timeline = append(timeline, action{at: ev.At + ev.For, arm: false, event: ev})
	}
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].at < timeline[j].at })

	start := time.Now()
	for _, a := range timeline {
		if wait := a.at - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-stop:
				return
			}
		}
		if a.arm {
			fault.Set(a.event.Point, a.event.Rule)
		} else {
			fault.Clear(a.event.Point)
		}
	}
	if wait := s.Total - time.Since(start); wait > 0 {
		select {
		case <-time.After(wait):
		case <-stop:
		}
	}
}

// steps returns the canonical step labels of one full iteration of p, in
// order; a transcript from loadgen's RunIteration indexes into the same
// order.
func steps(p loadgen.Program) []string {
	s := []string{"compile", "open", "break", "continue1"}
	for _, v := range p.Prints {
		s = append(s, "print:"+v)
	}
	return append(s, "info", "continue2", "close")
}
