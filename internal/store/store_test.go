package store

import (
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The tests cache strings keyed by a {name, body} identity; the codec is a
// trivial length-prefixed text format.

type ident struct {
	Name, Body string
}

var testSeed = maphash.MakeSeed()

func identHash(m ident) uint64 {
	var h maphash.Hash
	h.SetSeed(testSeed)
	h.WriteString(m.Name)
	h.WriteByte(0)
	h.WriteString(m.Body)
	return h.Sum64()
}

type textCodec struct{}

func (textCodec) Encode(id string, m ident, v string) ([]byte, error) {
	return []byte(fmt.Sprintf("%s\x00%s\x00%s", m.Name, m.Body, v)), nil
}

func (textCodec) Decode(id string, data []byte) (ident, string, int64, error) {
	parts := strings.SplitN(string(data), "\x00", 3)
	if len(parts) != 3 {
		return ident{}, "", 0, fmt.Errorf("corrupt spill record")
	}
	return ident{Name: parts[0], Body: parts[1]}, parts[2], int64(len(parts[2])), nil
}

func newTestStore(t *testing.T, cfg Config[ident, string]) *Store[ident, string] {
	t.Helper()
	cfg.Hash = identHash
	if cfg.Dir != "" && cfg.Codec == nil {
		cfg.Codec = textCodec{}
	}
	return New(cfg)
}

func get(t *testing.T, s *Store[ident, string], name string, cost int64) (string, bool) {
	t.Helper()
	m := ident{Name: name, Body: "body-of-" + name}
	v, hit, err := s.Get(m, func() string { return "id-" + name }, func() (string, int64, error) {
		return "value-of-" + name, cost, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v, hit
}

func TestGetComputesOnceAndHits(t *testing.T) {
	s := newTestStore(t, Config[ident, string]{})
	if v, hit := get(t, s, "a", 10); hit || v != "value-of-a" {
		t.Fatalf("first get = (%q, hit=%v)", v, hit)
	}
	if v, hit := get(t, s, "a", 10); !hit || v != "value-of-a" {
		t.Fatalf("second get = (%q, hit=%v)", v, hit)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.MemoryBytes != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	s := newTestStore(t, Config[ident, string]{})
	m := ident{Name: "bad", Body: "x"}
	for i := 0; i < 2; i++ {
		_, _, err := s.Get(m, func() string { return "id-bad" }, func() (string, int64, error) {
			return "", 0, fmt.Errorf("boom")
		})
		if err == nil {
			t.Fatal("want error")
		}
	}
	st := s.Stats()
	if st.Misses != 2 || st.Entries != 0 || st.MemoryBytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEntryBoundLRU(t *testing.T) {
	s := newTestStore(t, Config[ident, string]{MaxEntries: 2})
	get(t, s, "a", 1)
	get(t, s, "b", 1)
	get(t, s, "a", 1) // touch a; b becomes LRU
	get(t, s, "c", 1)
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if _, hit := get(t, s, "a", 1); !hit {
		t.Fatal("recently used entry evicted")
	}
	if _, hit := get(t, s, "b", 1); hit {
		t.Fatal("LRU entry survived")
	}
}

func TestMemoryBudgetNeverExceeded(t *testing.T) {
	const budget = 100
	s := newTestStore(t, Config[ident, string]{MemoryBudget: budget})
	for i := 0; i < 20; i++ {
		get(t, s, fmt.Sprintf("k%d", i), 30)
		if st := s.Stats(); st.MemoryBytes > budget {
			t.Fatalf("accounted bytes %d exceed budget %d", st.MemoryBytes, budget)
		}
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("expected evictions under budget pressure, stats = %+v", st)
	}
}

func TestAddCostEvictsInLockstep(t *testing.T) {
	const budget = 100
	s := newTestStore(t, Config[ident, string]{MemoryBudget: budget})
	get(t, s, "a", 40)
	get(t, s, "b", 40)
	// Charging a's late-built analyses pushes the shard over budget: the
	// LRU entry (a itself or b, whichever is colder) must go, and the
	// accounted total must stay within budget.
	s.AddCost(ident{Name: "a", Body: "body-of-a"}, 50)
	st := s.Stats()
	if st.MemoryBytes > budget {
		t.Fatalf("accounted bytes %d exceed budget %d after AddCost", st.MemoryBytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("AddCost over budget did not evict")
	}
}

func TestAddCostToEvictedIdentityIsDropped(t *testing.T) {
	s := newTestStore(t, Config[ident, string]{MaxEntries: 1})
	get(t, s, "a", 10)
	get(t, s, "b", 10) // evicts a
	s.AddCost(ident{Name: "a", Body: "body-of-a"}, 1000)
	if st := s.Stats(); st.MemoryBytes != 10 {
		t.Fatalf("orphan AddCost was charged: %+v", st)
	}
}

func TestCoalescing(t *testing.T) {
	s := newTestStore(t, Config[ident, string]{})
	const n = 16
	var computes int
	var mu sync.Mutex
	start := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, _, err := s.Get(ident{Name: "x", Body: "b"}, func() string { return "id-x" },
				func() (string, int64, error) {
					mu.Lock()
					computes++
					mu.Unlock()
					return "vx", 2, nil
				})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times", computes)
	}
	for _, v := range vals {
		if v != "vx" {
			t.Fatalf("coalesced caller got %q", v)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSpillOnEvictionAndReload(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Config[ident, string]{MaxEntries: 1, Dir: dir})
	get(t, s, "a", 5)
	get(t, s, "b", 5) // evicts and spills a
	if st := s.Stats(); st.SpillWrites != 1 {
		t.Fatalf("stats after eviction = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "id-a.art")); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	v, hit := get(t, s, "a", 5) // must come from disk, not compute
	if !hit || v != "value-of-a" {
		t.Fatalf("reload = (%q, hit=%v)", v, hit)
	}
	st := s.Stats()
	if st.SpillHits != 1 {
		t.Fatalf("stats after reload = %+v", st)
	}
}

func TestRestartKeepsWarmSetViaFlush(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Config[ident, string]{Dir: dir})
	get(t, s, "a", 5)
	get(t, s, "b", 5)
	s.Flush()

	restarted := newTestStore(t, Config[ident, string]{Dir: dir})
	for _, k := range []string{"a", "b"} {
		if v, hit := get(t, restarted, k, 5); !hit || v != "value-of-"+k {
			t.Fatalf("after restart, %s = (%q, hit=%v)", k, v, hit)
		}
	}
	st := restarted.Stats()
	if st.SpillHits != 2 || st.Misses != 0 {
		t.Fatalf("restart stats = %+v", st)
	}
}

func TestLookupIDMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, Config[ident, string]{Dir: dir})
	get(t, s, "a", 5)
	if v, ok := s.LookupID("id-a"); !ok || v != "value-of-a" {
		t.Fatalf("memory LookupID = (%q, %v)", v, ok)
	}
	s.Flush()

	restarted := newTestStore(t, Config[ident, string]{Dir: dir})
	if v, ok := restarted.LookupID("id-a"); !ok || v != "value-of-a" {
		t.Fatalf("disk LookupID = (%q, %v)", v, ok)
	}
	// Rehydrated entry is resident now.
	if st := restarted.Stats(); st.Entries != 1 || st.SpillHits != 1 {
		t.Fatalf("stats after disk LookupID = %+v", st)
	}
	if _, ok := restarted.LookupID("id-missing"); ok {
		t.Fatal("LookupID of unknown id succeeded")
	}
}

func TestLookupIDMissCountsSpillMiss(t *testing.T) {
	s := newTestStore(t, Config[ident, string]{Dir: t.TempDir()})
	before := s.Stats()
	if _, ok := s.LookupID("id-missing"); ok {
		t.Fatal("LookupID of unknown id succeeded")
	}
	after := s.Stats()
	if after.SpillMisses != before.SpillMisses+1 {
		t.Fatalf("SpillMisses %d -> %d, want +1", before.SpillMisses, after.SpillMisses)
	}
	if after.SpillErrors != before.SpillErrors {
		t.Fatalf("a missing file counted as a spill error: %+v", after)
	}
}

func TestCorruptSpillFallsBackToCompute(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "id-a.art"), []byte("garbage-without-separators"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, Config[ident, string]{Dir: dir})
	v, hit := get(t, s, "a", 5)
	if hit || v != "value-of-a" {
		t.Fatalf("corrupt spill served: (%q, hit=%v)", v, hit)
	}
	if st := s.Stats(); st.SpillErrors == 0 {
		t.Fatalf("corrupt spill not counted: %+v", st)
	}
}

func TestShardedStoreConcurrentBudgetInvariant(t *testing.T) {
	const budget = 4096
	s := newTestStore(t, Config[ident, string]{Shards: 8, MemoryBudget: budget})
	var wg, pollWG sync.WaitGroup
	stopPoll := make(chan struct{})
	var violation error
	var vmu sync.Mutex
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			if st := s.Stats(); st.MemoryBytes > budget {
				vmu.Lock()
				violation = fmt.Errorf("accounted bytes %d exceed budget %d", st.MemoryBytes, budget)
				vmu.Unlock()
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i%40)
				get(t, s, k, 300)
				if i%10 == 0 {
					s.AddCost(ident{Name: k, Body: "body-of-" + k}, 100)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopPoll)
	pollWG.Wait()
	vmu.Lock()
	defer vmu.Unlock()
	if violation != nil {
		t.Fatal(violation)
	}
	if st := s.Stats(); st.MemoryBytes > budget {
		t.Fatalf("final accounted bytes %d exceed budget %d", st.MemoryBytes, budget)
	}
	// At rest every shard's accounting is exact: its byte total is the sum
	// of its resident entries' costs, and every id-indexed entry is still
	// resident (an evicted entry left in byID would be served stale).
	for i, sh := range s.shards {
		var sum int64
		for el := sh.order.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*entry[ident, string]).cost
		}
		if sh.bytes != sum {
			t.Errorf("shard %d: accounted bytes %d, resident costs sum to %d", i, sh.bytes, sum)
		}
		for id, e := range sh.byID {
			if sh.index[e.m] != e {
				t.Errorf("shard %d: byID entry %s is not resident", i, id)
			}
		}
	}
}
