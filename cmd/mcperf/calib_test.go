package main

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConnPoolEpochs pins the barrier: no request runs while a boundary
// is marked, every unit is handed out exactly once, a connection's epochs
// never go back, and a connection that leaves early does not stall the
// others.
func TestConnPoolEpochs(t *testing.T) {
	const units, conns = 120, 3
	var running atomic.Int32
	marks := 0
	ep := &epochs{}
	pool, err := newConnPool(units, 1, conns, 0, ep, func() error {
		if n := running.Load(); n != 0 {
			t.Errorf("boundary marked with %d requests running", n)
		}
		marks++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int]bool{}
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer pool.leave()
			last := 0
			for n := 0; k != 0 || n < 5; n++ {
				i, ok := pool.take()
				if !ok {
					return
				}
				for req := 0; req < 3; req++ {
					e := pool.enter()
					if e < last {
						t.Errorf("connection %d went from epoch %d back to %d", k, last, e)
					}
					last = e
					running.Add(1)
					time.Sleep(time.Millisecond)
					running.Add(-1)
				}
				mu.Lock()
				if seen[i] {
					t.Errorf("unit %d handed out twice", i)
				}
				seen[i] = true
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	if len(seen) != units {
		t.Fatalf("%d units run, want %d", len(seen), units)
	}
	if marks != len(ep.wall)+1 || len(ep.wall) < 2 {
		t.Errorf("%d boundaries for %d epochs", marks, len(ep.wall))
	}
}

func TestEpochScale(t *testing.T) {
	// CPU 1 ran at half the reference speed and was busy three times as
	// long as CPU 0 (counting the half-tick prior): the epoch's times are
	// scaled by (10*1 + 30*0.5) / 40.
	ep := &epochs{
		cpus: []int{0, 1},
		marks: []mark{
			{kern: []time.Duration{calibRef, 2 * calibRef}, start: []float64{100, 200}},
			{end: []float64{109.5, 229.5}, kern: []time.Duration{calibRef, 2 * calibRef}},
		},
		wall: []time.Duration{time.Second},
	}
	if s := ep.scale(0); math.Abs(s-0.625) > 1e-12 {
		t.Errorf("scale = %v, want 0.625", s)
	}
	if d := ep.refWall(); d != 625*time.Millisecond {
		t.Errorf("refWall = %v, want 625ms", d)
	}
}

// TestConnPoolBudget pins that the phase ends at a round boundary once
// less than half of the next round would fall within the budget, after at
// least one round.
func TestConnPoolBudget(t *testing.T) {
	const round = 4
	pool, err := newConnPool(1000, round, 1, 100*time.Millisecond, &epochs{}, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := pool.take(); !ok {
			break
		}
		time.Sleep(10 * time.Millisecond)
		n++
	}
	if n < round || n%round != 0 || n >= 1000 {
		t.Errorf("ran %d units in rounds of %d within 100ms", n, round)
	}
}
