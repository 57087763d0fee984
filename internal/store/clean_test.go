package store

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Clean-entry tests: an entry read back from its spill file is not written
// again — not by eviction, not by Flush — because the file it came from is
// still on disk with exactly its bytes. Anything that breaks that file
// (removal from outside, a partial write) is healed by the ordinary read
// path: the next read misses or rejects it, the recompute is not clean,
// and its eviction writes the file whole.

// pinFile backdates path's mtime to a fixed instant and returns its bytes,
// so a later rewrite shows as a changed mtime whatever the filesystem's
// timestamp resolution.
func pinFile(t *testing.T, path string) ([]byte, time.Time) {
	t.Helper()
	at := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, at
}

// checkUntouched fails unless path still holds data with mtime at.
func checkUntouched(t *testing.T, path string, data []byte, at time.Time) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("spill file gone: %v", err)
	}
	if string(got) != string(data) {
		t.Fatalf("spill file rewritten with different bytes: %q, was %q", got, data)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fi.ModTime().Equal(at) {
		t.Fatalf("spill file rewritten: mtime %v, want %v", fi.ModTime(), at)
	}
}

func TestCleanEntryEvictionWritesNothing(t *testing.T) {
	for _, via := range []string{"Get", "LookupID"} {
		t.Run(via, func(t *testing.T) {
			dir := t.TempDir()
			s := newTestStore(t, Config[ident, string]{MaxEntries: 1, Dir: dir})
			get(t, s, "a", 5)
			get(t, s, "b", 5) // evicts and writes a
			path := filepath.Join(dir, "id-a.art")
			data, at := pinFile(t, path)

			// Read a back (evicting b, which writes b), then evict it again.
			if via == "Get" {
				if v, hit := get(t, s, "a", 5); !hit || v != "value-of-a" {
					t.Fatalf("read-back = (%q, hit=%v)", v, hit)
				}
			} else {
				get(t, s, "c", 5) // evicts and writes b
				if v, ok := s.LookupID("id-a"); !ok || v != "value-of-a" {
					t.Fatalf("LookupID read-back = (%q, %v)", v, ok)
				}
			}
			writes := s.Stats().SpillWrites
			get(t, s, "b", 5) // a spill hit of b that evicts the clean a
			if st := s.Stats(); st.SpillWrites != writes || st.Evictions == 0 {
				t.Fatalf("evicting a clean entry wrote: SpillWrites %d -> %d (%+v)", writes, st.SpillWrites, st)
			}
			checkUntouched(t, path, data, at)

			// The file is still there, so a is still a spill hit.
			before := s.Stats()
			if v, hit := get(t, s, "a", 5); !hit || v != "value-of-a" {
				t.Fatalf("third read = (%q, hit=%v)", v, hit)
			}
			if st := s.Stats(); st.SpillHits != before.SpillHits+1 || st.Misses != before.Misses {
				t.Fatalf("third read not a spill hit: %+v -> %+v", before, st)
			}
		})
	}
}

func TestFlushSkipsCleanEntries(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Config[ident, string]{Dir: dir})
	get(t, s, "a", 5)
	get(t, s, "b", 5)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SpillWrites != 2 {
		t.Fatalf("first flush wrote %d, want 2", st.SpillWrites)
	}
	pa, pb := filepath.Join(dir, "id-a.art"), filepath.Join(dir, "id-b.art")
	da, at := pinFile(t, pa)
	db, _ := pinFile(t, pb)

	restarted := newTestStore(t, Config[ident, string]{Dir: dir})
	get(t, restarted, "a", 5)                     // clean, via Get
	if _, ok := restarted.LookupID("id-b"); !ok { // clean, via LookupID
		t.Fatal("LookupID of a flushed entry failed")
	}
	get(t, restarted, "c", 5) // computed: the only entry not on disk
	if err := restarted.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := restarted.Stats(); st.SpillWrites != 1 || st.FlushErrors != 0 {
		t.Fatalf("flush over two clean entries and one computed wrote %d, want 1 (%+v)", st.SpillWrites, st)
	}
	checkUntouched(t, pa, da, at)
	checkUntouched(t, pb, db, at)
	if _, err := os.Stat(filepath.Join(dir, "id-c.art")); err != nil {
		t.Fatalf("computed entry not flushed: %v", err)
	}
}

func TestRemovedSpillAfterReadBack(t *testing.T) {
	for _, via := range []string{"Get", "LookupID"} {
		t.Run(via, func(t *testing.T) {
			dir := t.TempDir()
			s := newTestStore(t, Config[ident, string]{MaxEntries: 1, Dir: dir})
			get(t, s, "a", 5)
			get(t, s, "b", 5) // writes a
			if _, hit := get(t, s, "a", 5); !hit {
				t.Fatal("read-back missed")
			}
			path := filepath.Join(dir, "id-a.art")
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			get(t, s, "b", 5) // evicts the clean a: nothing written
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("clean eviction wrote the removed file back: %v", err)
			}
			before := s.Stats()
			if via == "LookupID" {
				if v, ok := s.LookupID("id-a"); ok {
					t.Fatalf("LookupID found a removed file: %q", v)
				}
				return
			}
			if v, hit := get(t, s, "a", 5); hit || v != "value-of-a" {
				t.Fatalf("Get after removal = (%q, hit=%v), want a recompute", v, hit)
			}
			if st := s.Stats(); st.Misses != before.Misses+1 || st.SpillMisses != before.SpillMisses+1 {
				t.Fatalf("Get after removal: %+v -> %+v", before, st)
			}
			// The recompute is not clean: its eviction writes the file again.
			get(t, s, "b", 5)
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("recomputed entry not written on eviction: %v", err)
			}
		})
	}
}

func TestResidentFindsCompletedEntriesOnly(t *testing.T) {
	s := newTestStore(t, Config[ident, string]{})
	get(t, s, "a", 5)
	want := ident{Name: "a", Body: "body-of-a"}
	match := func(m ident, _ string) bool { return m == want }
	if v, ok := s.Resident(want, match); !ok || v != "value-of-a" {
		t.Fatalf("Resident = (%q, %v)", v, ok)
	}
	if _, ok := s.Resident(want, func(ident, string) bool { return false }); ok {
		t.Fatal("Resident ignored match")
	}

	// An in-flight entry is not resident.
	m := ident{Name: "slow", Body: "body"}
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Get(m, func() string { return "id-slow" }, func() (string, int64, error) {
			close(started)
			<-release
			return "v", 1, nil
		})
	}()
	<-started
	if _, ok := s.Resident(m, func(got ident, _ string) bool { return got == m }); ok {
		t.Fatal("Resident returned an in-flight entry")
	}
	close(release)
	wg.Wait()
	if before := s.Stats(); before.Hits != 0 {
		t.Fatalf("Resident moved a counter: %+v", before)
	}
}
