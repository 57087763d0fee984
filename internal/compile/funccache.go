package compile

// FuncCache: the incremental-compilation tier. Values are serialized
// per-function machine-code images (spill.go's enc.fn format, the same
// one a spill file stores each function in), keyed by FuncKey, held in a
// sharded, memory-accounted store.Store. Entries are stored encoded —
// never as live *mach.Func — because a machine function is bound to one
// front end's *ast.Object identities; stitching a cached function into a
// new compilation decodes the image against that compilation's own
// sem.Program, which rebinds objects, declarations and source positions
// (see dec.fn). Entries carry no version or checksum: they live only in
// this process's memory, and the key already hashes everything decoding
// depends on (names, the locals table, the globals signature, Config, IR
// and spillVersion).

import (
	"encoding/binary"

	"repro/internal/mach"
	"repro/internal/sem"
	"repro/internal/store"
)

// FuncCacheConfig tunes a FuncCache. The zero value is a single-shard,
// unbounded cache.
type FuncCacheConfig struct {
	// Shards is the store shard count (rounded up to a power of two).
	Shards int
	// MemoryBudget bounds the accounted bytes of encoded function entries;
	// <= 0 means unbounded.
	MemoryBudget int64
}

// FuncCache caches compiled functions by content hash for incremental
// recompilation. It is safe for concurrent use and may be shared by any
// number of Pipelines (the keys are self-describing: program environment,
// function IR and Config are all part of the hash).
type FuncCache struct {
	s *store.Store[FuncKey, []byte]
}

// NewFuncCache creates a function cache.
func NewFuncCache(cfg FuncCacheConfig) *FuncCache {
	return &FuncCache{s: store.New(store.Config[FuncKey, []byte]{
		Shards:       cfg.Shards,
		MemoryBudget: cfg.MemoryBudget,
		// The key is already a cryptographic hash; its prefix routes.
		Hash: func(k FuncKey) uint64 { return binary.LittleEndian.Uint64(k[:8]) },
	})}
}

// get returns the encoded entry for k, computing (and caching) it at most
// once across concurrent callers. hit reports that compute was skipped.
func (c *FuncCache) get(k FuncKey, compute func() ([]byte, int64, error)) ([]byte, bool, error) {
	return c.s.Get(k, k.String, compute)
}

// Stats returns the underlying store counters (hits/misses are per-function
// lookups, MemoryBytes the encoded-entry budget usage).
func (c *FuncCache) Stats() store.Stats { return c.s.Stats() }

// encodeFuncEntry serializes one compiled function for the cache.
func encodeFuncEntry(f *mach.Func) ([]byte, error) {
	e := &enc{b: make([]byte, 0, encSizeHint(f))}
	e.fn(f)
	return e.b, e.err
}

// decodeFuncEntry reconstructs a cached function against the current front
// end, rebinding declarations, objects and source positions.
func decodeFuncEntry(data []byte, p *sem.Program) (*mach.Func, error) {
	d := &dec{b: data, globals: p.Globals}
	f := d.fn(p)
	if d.end(); d.err != nil {
		return nil, d.err
	}
	return f, nil
}
