package compile_test

import (
	"container/list"
	"sync"
	"testing"

	"repro/internal/artstore"
	"repro/internal/bench"
	"repro/internal/compile"
)

// legacyCache is a faithful copy of the pre-store single-mutex cache: one
// global mutex around a map + LRU list, with the full source sha256-hashed
// on every request (twice, counting Key.ID for handles). It exists only as
// the benchmark baseline for BENCH_store.json.
type legacyCache struct {
	mu      sync.Mutex
	max     int
	entries map[compile.Key]*legacyEntry
	order   *list.List
}

type legacyEntry struct {
	key  compile.Key
	elem *list.Element
	done chan struct{}
	res  *compile.Result
	err  error
}

func newLegacyCache(max int) *legacyCache {
	return &legacyCache{max: max, entries: map[compile.Key]*legacyEntry{}, order: list.New()}
}

func (c *legacyCache) compile(name, src string, cfg compile.Config) (*compile.Result, bool, error) {
	key := compile.KeyOf(name, src, cfg)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.done
		return e.res, true, e.err
	}
	e := &legacyEntry{key: key, done: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()

	e.res, e.err = compile.Compile(name, src, cfg)
	close(e.done)

	c.mu.Lock()
	if e.err != nil {
		if cur, ok := c.entries[key]; ok && cur == e {
			delete(c.entries, key)
			c.order.Remove(e.elem)
		}
	} else if c.max > 0 {
		for el := c.order.Back(); el != nil && len(c.entries) > c.max; {
			ev := el.Value.(*legacyEntry)
			prev := el.Prev()
			select {
			case <-ev.done:
				delete(c.entries, ev.key)
				c.order.Remove(el)
			default:
			}
			el = prev
		}
	}
	c.mu.Unlock()
	return e.res, false, e.err
}

type workload struct {
	name, src string
}

func benchWorkloads() []workload {
	ws := make([]workload, 0, len(bench.Names))
	for _, n := range bench.Names {
		ws = append(ws, workload{n + ".mc", bench.MustSource(n)})
	}
	return ws
}

// BenchmarkCacheHotLegacy measures hot-hit throughput of the old design:
// every request pays a sha256 over the full source under a single global
// mutex. Run with -cpu or SetParallelism to model concurrent sessions.
func BenchmarkCacheHotLegacy(b *testing.B) {
	ws := benchWorkloads()
	c := newLegacyCache(0)
	for _, w := range ws {
		if _, _, err := c.compile(w.name, w.src, compile.O2()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			w := ws[i%len(ws)]
			i++
			if _, hit, err := c.compile(w.name, w.src, compile.O2()); err != nil || !hit {
				b.Errorf("hit=%v err=%v", hit, err)
				return
			}
		}
	})
}

// BenchmarkCacheHotStore is the same hot-hit workload against the sharded
// artifact store: requests hash with maphash and resolve under a per-shard
// lock; sha256 runs only on miss.
func BenchmarkCacheHotStore(b *testing.B) {
	ws := benchWorkloads()
	c := artstore.New(artstore.Config{Shards: 8})
	for _, w := range ws {
		if _, _, err := c.Get(w.name, w.src, compile.O2()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			w := ws[i%len(ws)]
			i++
			if _, hit, err := c.Get(w.name, w.src, compile.O2()); err != nil || !hit {
				b.Errorf("hit=%v err=%v", hit, err)
				return
			}
		}
	})
}

// BenchmarkColdRestartNoSpill measures serving the full workload set from
// a fresh process with no disk tier: every artifact recompiles.
func BenchmarkColdRestartNoSpill(b *testing.B) {
	ws := benchWorkloads()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := artstore.New(artstore.Config{Shards: 8})
		for _, w := range ws {
			if _, _, err := c.Get(w.name, w.src, compile.O2()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkColdRestartSpill measures the same restart against a warm spill
// directory: artifacts decode from disk (front-end replay + integrity
// check) instead of running the optimizer pipeline.
func BenchmarkColdRestartSpill(b *testing.B) {
	ws := benchWorkloads()
	dir := b.TempDir()
	warm := artstore.New(artstore.Config{Shards: 8, SpillDir: dir})
	for _, w := range ws {
		if _, _, err := warm.Get(w.name, w.src, compile.O2()); err != nil {
			b.Fatal(err)
		}
	}
	warm.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := artstore.New(artstore.Config{Shards: 8, SpillDir: dir})
		for _, w := range ws {
			a, _, err := c.Get(w.name, w.src, compile.O2())
			if err != nil {
				b.Fatal(err)
			}
			if a.Res.Mach == nil {
				b.Fatal("empty artifact from spill")
			}
		}
		st := c.Stats()
		if st.SpillHits != int64(len(ws)) {
			b.Fatalf("restart compiled instead of reloading: %+v", st)
		}
	}
}

// BenchmarkColdRestartSpillSiblings restarts against a warm spill directory
// holding every workload at O0, O2NoRegAlloc and O2, and reads all 24
// back, a workload's three configs in a row: the first decode of each
// source replays the front end, and the two after it take the checked
// front end of the resident sibling.
func BenchmarkColdRestartSpillSiblings(b *testing.B) {
	ws := benchWorkloads()
	cfgs := []compile.Config{compile.O0(), compile.O2NoRegAlloc(), compile.O2()}
	dir := b.TempDir()
	warm := artstore.New(artstore.Config{Shards: 8, SpillDir: dir})
	for _, w := range ws {
		for _, cfg := range cfgs {
			if _, _, err := warm.Get(w.name, w.src, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	warm.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := artstore.New(artstore.Config{Shards: 8, SpillDir: dir})
		for _, w := range ws {
			for _, cfg := range cfgs {
				if _, _, err := c.Get(w.name, w.src, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		if st := c.Stats(); st.SpillHits != int64(len(ws)*len(cfgs)) {
			b.Fatalf("restart compiled instead of reloading: %+v", st)
		}
	}
}
