package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// Disk-tier degradation tests: every way the spill tier can lie or fail
// must end in a fresh compute with the correct value, never a cached
// error or a served corruption; sustained I/O failure must trip the
// breaker into memory-only mode, and a healthy disk must bring it back.

func TestTruncatedSpillFallsBackToCompute(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Config[ident, string]{MaxEntries: 1, Dir: dir})
	get(t, s, "a", 5)
	get(t, s, "b", 5) // evicts and spills a
	path := filepath.Join(dir, "id-a.art")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	v, hit := get(t, s, "a", 5)
	if hit || v != "value-of-a" {
		t.Fatalf("truncated spill served: (%q, hit=%v)", v, hit)
	}
	st := s.Stats()
	if st.SpillErrors == 0 {
		t.Fatalf("truncated spill not counted: %+v", st)
	}
	if st.SpillDegraded || st.SpillDegradations != 0 {
		t.Fatalf("data error tripped the breaker: %+v", st)
	}
	// The bad file is gone, so the id cannot wedge future lookups.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt spill file not removed: %v", err)
	}
	// The recompute is cached normally — not the error.
	if v, hit := get(t, s, "a", 5); !hit || v != "value-of-a" {
		t.Fatalf("recompute not cached: (%q, hit=%v)", v, hit)
	}
}

func TestMismatchedIdentitySpillFallsBack(t *testing.T) {
	dir := t.TempDir()
	// A well-formed record whose embedded identity is not the one the id
	// names: a stale or colliding file. Decode succeeds; the identity
	// check must reject it.
	bogus := fmt.Sprintf("%s\x00%s\x00%s", "other", "body-of-other", "value-of-other")
	if err := os.WriteFile(filepath.Join(dir, "id-a.art"), []byte(bogus), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, Config[ident, string]{Dir: dir})
	v, hit := get(t, s, "a", 5)
	if hit || v != "value-of-a" {
		t.Fatalf("mismatched spill served: (%q, hit=%v)", v, hit)
	}
	if st := s.Stats(); st.SpillErrors == 0 || st.SpillDegraded {
		t.Fatalf("stats after identity mismatch = %+v", st)
	}
}

func TestUnreadableSpillDirFallsBackAndCountsIOErrors(t *testing.T) {
	// Point the disk tier at a path that is a regular file: every read
	// under it fails with ENOTDIR — an I/O error (the disk answered
	// garbage), not a missing file — so the breaker counts it.
	parent := t.TempDir()
	notADir := filepath.Join(parent, "spill")
	if err := os.WriteFile(notADir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, Config[ident, string]{Dir: notADir, DegradeAfter: 100})
	defer s.Close()
	for _, k := range []string{"a", "b", "c"} {
		if v, hit := get(t, s, k, 5); hit || v != "value-of-"+k {
			t.Fatalf("unreadable dir: %s = (%q, hit=%v)", k, v, hit)
		}
	}
	if st := s.Stats(); st.SpillErrors == 0 {
		t.Fatalf("unreadable dir I/O errors not counted: %+v", st)
	}
}

func TestBreakerDegradesAndProbeRecovers(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	dir := t.TempDir()
	s := newTestStore(t, Config[ident, string]{
		Dir:           dir,
		DegradeAfter:  2,
		ProbeInterval: 10 * time.Millisecond,
	})
	defer s.Close()

	fault.Set("store.spill.read", fault.Rule{})
	get(t, s, "a", 5) // read attempt 1 fails
	get(t, s, "b", 5) // read attempt 2 fails -> breaker trips
	st := s.Stats()
	if !st.SpillDegraded || st.SpillDegradations != 1 {
		t.Fatalf("breaker did not trip: %+v", st)
	}
	// Degraded: the disk is not touched at all, so a poisoned read point
	// cannot even fire.
	before := fault.Fired("store.spill.read")
	get(t, s, "c", 5)
	if fired := fault.Fired("store.spill.read"); fired != before {
		t.Fatalf("degraded store still touched the disk (%d -> %d)", before, fired)
	}

	// Heal the disk; the probe must re-enable the tier.
	fault.Clear("store.spill.read")
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().SpillDegraded {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st = s.Stats()
	if st.SpillProbes == 0 {
		t.Fatalf("recovery without probes: %+v", st)
	}
	// The tier works again end to end: flush, then reload from disk.
	if err := s.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	restarted := newTestStore(t, Config[ident, string]{Dir: dir})
	if v, hit := get(t, restarted, "c", 5); !hit || v != "value-of-c" {
		t.Fatalf("reload after recovery = (%q, hit=%v)", v, hit)
	}
}

func TestNotExistReadsDoNotTrip(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Config[ident, string]{Dir: dir, DegradeAfter: 2})
	defer s.Close()
	// Cold misses read the disk and find nothing; an empty tier is a
	// healthy tier.
	for _, k := range []string{"a", "b", "c", "d"} {
		get(t, s, k, 5)
	}
	if st := s.Stats(); st.SpillDegraded || st.SpillDegradations != 0 {
		t.Fatalf("NotExist reads tripped the breaker: %+v", st)
	}
}

func TestFlushSkippedWhileDegraded(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	s := newTestStore(t, Config[ident, string]{
		Dir:           t.TempDir(),
		DegradeAfter:  1,
		ProbeInterval: time.Hour, // keep it degraded for the test's span
	})
	defer s.Close()
	fault.Set("store.spill.read", fault.Rule{})
	get(t, s, "a", 5) // trips immediately (DegradeAfter 1)
	if st := s.Stats(); !st.SpillDegraded {
		t.Fatalf("breaker did not trip: %+v", st)
	}
	err := s.Flush()
	if err == nil {
		t.Fatal("degraded Flush reported success")
	}
	if st := s.Stats(); st.FlushErrors != 1 {
		t.Fatalf("degraded Flush not counted: %+v", st)
	}
}

func TestInjectedWriteAndRenameFailuresCount(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	dir := t.TempDir()
	s := newTestStore(t, Config[ident, string]{MaxEntries: 1, Dir: dir, DegradeAfter: 100})
	defer s.Close()

	fault.Set("store.spill.write", fault.Rule{Times: 1})
	get(t, s, "a", 5)
	get(t, s, "b", 5) // eviction of a: spill write fails
	st := s.Stats()
	if st.SpillErrors != 1 || st.SpillWrites != 0 {
		t.Fatalf("write failure stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "id-a.art")); !os.IsNotExist(err) {
		t.Fatal("failed spill left a file behind")
	}

	fault.Set("store.spill.rename", fault.Rule{Times: 1})
	get(t, s, "c", 5) // eviction of b: rename fails after the temp write
	st = s.Stats()
	if st.SpillErrors != 2 {
		t.Fatalf("rename failure stats = %+v", st)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp") || strings.Contains(e.Name(), ".art.tmp") {
			t.Fatalf("rename failure leaked temp file %s", e.Name())
		}
	}
}

func TestInjectedPartialWriteIsRejectedOnRead(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	dir := t.TempDir()
	s := newTestStore(t, Config[ident, string]{MaxEntries: 1, Dir: dir, DegradeAfter: 100})
	defer s.Close()

	fault.Set("store.spill.partial", fault.Rule{Times: 1, CutTo: 0.4})
	get(t, s, "a", 5)
	get(t, s, "b", 5) // spills a truncated record for a
	if fault.Fired("store.spill.partial") != 1 {
		t.Fatal("partial-write point never fired")
	}
	v, hit := get(t, s, "a", 5) // must reject the short record and recompute
	if hit || v != "value-of-a" {
		t.Fatalf("partial spill served: (%q, hit=%v)", v, hit)
	}
	// The recompute is not a clean entry: its eviction writes the file
	// whole, and the next read is a spill hit.
	writes := s.Stats().SpillWrites
	get(t, s, "b", 5)
	if st := s.Stats(); st.SpillWrites != writes+1 {
		t.Fatalf("evicting the recompute wrote %d files, want 1", st.SpillWrites-writes)
	}
	if v, hit := get(t, s, "a", 5); !hit || v != "value-of-a" {
		t.Fatalf("read of the healed file = (%q, hit=%v)", v, hit)
	}
}

// TestComputePanicDoesNotStrandWaiters pins the panic-safety contract of
// Get: a panicking compute must resolve the in-flight entry with an
// error so coalesced waiters unblock, and the identity must stay
// uncached so the next Get recomputes.
func TestComputePanicDoesNotStrandWaiters(t *testing.T) {
	s := newTestStore(t, Config[ident, string]{})
	m := ident{Name: "p", Body: "body-of-p"}
	id := func() string { return "id-p" }

	computeStarted := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }() // the panic reaches the computing caller
		s.Get(m, id, func() (string, int64, error) {
			close(computeStarted)
			<-release
			panic("compiler bug")
		})
	}()

	<-computeStarted
	waiterErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := s.Get(m, id, func() (string, int64, error) {
			return "", 0, errors.New("waiter should have coalesced, not computed")
		})
		waiterErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter coalesce
	close(release)

	select {
	case err := <-waiterErr:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("coalesced waiter got %v, want compute-panicked error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coalesced waiter deadlocked on a panicking compute")
	}
	wg.Wait()

	// Not cached: a later Get runs a fresh compute.
	v, hit, err := s.Get(m, id, func() (string, int64, error) { return "recovered", 1, nil })
	if err != nil || hit || v != "recovered" {
		t.Fatalf("Get after panic = (%q, hit=%v, %v)", v, hit, err)
	}
}
