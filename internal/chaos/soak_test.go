package chaos

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/pkg/minic"
)

// The soak's knobs. CI runs a longer schedule (-chaos.duration) and
// pins -chaos.seed when reproducing a recorded failure; the default is
// sized for the ordinary test suite.
var (
	chaosDuration = flag.Duration("chaos.duration", 3*time.Second, "length of the chaos fault schedule")
	chaosSeed     = flag.Int64("chaos.seed", 0, "fault schedule seed (0 = derive one and log it)")
)

const soakClients = 8

// TestChaosSoak is the harness's capstone: a live daemon under
// concurrent scripted load while a randomized fault schedule breaks its
// disk, its compile workers, and its connections. The contract under
// test is "unavailable, never wrong":
//
//   - every successful response is byte-identical (canonicalized) to a
//     fault-free reference run of the same script;
//   - cycle accounting is conserved: completed iterations put a floor
//     under cycles_executed, started iterations a ceiling;
//   - the spill tier degrades under the guaranteed disk outage and
//     self-recovers once the disk heals (background probe);
//   - no handler panics escape containment;
//   - after the schedule ends, a full fault-free iteration per client
//     succeeds and matches the reference exactly.
func TestChaosSoak(t *testing.T) {
	seed := *chaosSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("chaos schedule seed %d (reproduce with -chaos.seed=%d)", seed, seed)
	if path := os.Getenv("CHAOS_SEED_FILE"); path != "" {
		if err := os.WriteFile(path, []byte(fmt.Sprintf("%d\n", seed)), 0o644); err != nil {
			t.Logf("writing CHAOS_SEED_FILE: %v", err)
		}
	}

	// A deliberately tight store (4 artifacts, 8 distinct programs)
	// forces constant eviction/spill/reload churn, so the disk-tier fault
	// points see real traffic; a fast probe lets degradation heal within
	// the schedule's fault-free tail.
	srv := server.New(server.Options{
		CacheSize:          4,
		Shards:             2,
		SpillDir:           t.TempDir(),
		MaxSessions:        4096,
		SpillDegradeAfter:  2,
		SpillProbeInterval: 25 * time.Millisecond,
		RequestTimeout:     10 * time.Second,
		DrainTimeout:       2 * time.Second,
	})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	go srv.ListenAndServe(l)
	addr := l.Addr().String()

	progs := make([]loadgen.Program, soakClients)
	for i := range progs {
		progs[i] = loadgen.DefaultProgram(fmt.Sprintf("chaos-%d.mc", i))
	}

	// Phase 1 — fault-free reference, serial: record each program's
	// canonical transcript and its exact cycle cost.
	ref := make([][]string, soakClients)
	cycles := make([]int64, soakClients)
	for i, p := range progs {
		c, err := minic.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Snapshot().CyclesExecuted
		tr, err := loadgen.RunIteration(c, p)
		if err != nil {
			t.Fatalf("reference iteration %d: %v", i, err)
		}
		if len(tr) != len(p.Steps()) {
			t.Fatalf("reference iteration %d: %d steps, want %d", i, len(tr), len(p.Steps()))
		}
		ref[i] = tr
		cycles[i] = srv.Snapshot().CyclesExecuted - before
		if cycles[i] <= 0 {
			t.Fatalf("reference iteration %d executed %d cycles", i, cycles[i])
		}
		c.Close()
	}

	// Phase 2 — chaos: the schedule plays while every client loops its
	// script. Successful steps must match the reference byte for byte;
	// failed steps abort the iteration (typed errors and dropped
	// connections are the service being unavailable, which is allowed).
	base := srv.Snapshot()
	sched := NewSchedule(seed, *chaosDuration)
	stop := make(chan struct{})
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		sched.Run(stop)
	}()
	defer close(stop)

	type clientStats struct {
		started, completed, failed int64
		mismatches                 []string
	}
	stats := make([]clientStats, soakClients)
	var wg sync.WaitGroup
	for i := 0; i < soakClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := minic.Dial("tcp", addr, minic.WithRetry(minic.RetryPolicy{
				MaxAttempts: 3,
				BaseDelay:   5 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
			}))
			if err != nil {
				stats[i].mismatches = append(stats[i].mismatches, fmt.Sprintf("dial: %v", err))
				return
			}
			defer c.Close()
			st := &stats[i]
			for {
				select {
				case <-schedDone:
					return
				default:
				}
				tr, err := loadgen.RunIteration(c, progs[i])
				st.started++
				if err == nil {
					st.completed++
				} else {
					st.failed++
				}
				if len(tr) > len(ref[i]) {
					st.mismatches = append(st.mismatches,
						fmt.Sprintf("iteration %d: %d steps, reference has %d", st.started, len(tr), len(ref[i])))
					continue
				}
				for k := range tr {
					if tr[k] != ref[i][k] {
						st.mismatches = append(st.mismatches,
							fmt.Sprintf("iteration %d step %d:\n  got  %s\n  want %s", st.started, k, tr[k], ref[i][k]))
					}
				}
			}
		}(i)
	}
	wg.Wait()
	<-schedDone

	var started, completed, failed int64
	for i := range stats {
		started += stats[i].started
		completed += stats[i].completed
		failed += stats[i].failed
		for _, m := range stats[i].mismatches {
			t.Errorf("client %d payload divergence: %s", i, m)
		}
	}
	t.Logf("chaos phase: %d iterations started, %d completed, %d failed (seed %d)",
		started, completed, failed, seed)
	if started == 0 {
		t.Fatal("chaos phase ran no iterations")
	}
	if completed == 0 {
		t.Errorf("chaos phase completed no iterations — the service never answered through the faults (seed %d)", seed)
	}

	// Cycle conservation. Every completed iteration executed its program
	// exactly once (floor); no iteration can execute more than its
	// program (ceiling), whatever faults cut it short — a timed-out or
	// abandoned continue still credits only the cycles it really ran.
	chaosSnap := srv.Snapshot()
	delta := chaosSnap.CyclesExecuted - base.CyclesExecuted
	var floor, ceil int64
	for i := range stats {
		floor += stats[i].completed * cycles[i]
		ceil += stats[i].started * cycles[i]
	}
	if delta < floor || delta > ceil {
		t.Errorf("cycles_executed delta %d outside conservation bounds [%d, %d] (seed %d)",
			delta, floor, ceil, seed)
	}

	// The guaranteed disk outage must have tripped the breaker at least
	// once, and no injected panic may have escaped containment.
	if chaosSnap.SpillDegradations < 1 {
		t.Errorf("spill tier never degraded under the guaranteed outage (degradations=%d, seed %d)",
			chaosSnap.SpillDegradations, seed)
	}
	if chaosSnap.Panics != 0 {
		t.Errorf("%d handler panics escaped containment (seed %d)", chaosSnap.Panics, seed)
	}

	// Phase 3 — recovery: the injector is off (Run disabled it). The
	// breaker's probe must re-enable the spill tier, and a full
	// fault-free iteration per client must match the reference exactly.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().SpillDegraded {
		if time.Now().After(deadline) {
			t.Fatalf("spill tier still degraded %s after faults cleared (probes=%d, seed %d)",
				5*time.Second, srv.Snapshot().SpillProbes, seed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, p := range progs {
		c, err := minic.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := loadgen.RunIteration(c, p)
		if err != nil {
			t.Fatalf("recovery iteration %d: %v (seed %d)", i, err, seed)
		}
		for k := range tr {
			if tr[k] != ref[i][k] {
				t.Errorf("recovery iteration %d step %d diverged:\n  got  %s\n  want %s (seed %d)",
					i, k, tr[k], ref[i][k], seed)
			}
		}
		c.Close()
	}
}
