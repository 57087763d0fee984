package compile

// FuncCache: the incremental-compilation tier. Values are compiled
// machine bodies (a *mach.Func without Decl or Globals, which name no
// front-end object), keyed by FuncKey, held in a sharded, memory-accounted
// store.Store. Every compilation whose function reproduces a key shares
// its body under a Func of its own (Pipeline.compileOne). Entries carry no
// version or checksum: they live only in this process's memory, and the
// key already hashes everything the body depends on (name, the locals
// table, the globals signature, Config and IR).

import (
	"encoding/binary"

	"repro/internal/mach"
	"repro/internal/store"
)

// FuncCacheConfig tunes a FuncCache. The zero value is a single-shard,
// unbounded cache.
type FuncCacheConfig struct {
	// Shards is the store shard count (rounded up to a power of two).
	Shards int
	// MemoryBudget bounds the accounted bytes of the cached bodies; <= 0
	// means unbounded.
	MemoryBudget int64
}

// FuncCache caches compiled functions by content hash for incremental
// recompilation. It is safe for concurrent use and may be shared by any
// number of Pipelines (the keys are self-describing: program environment,
// function IR and Config are all part of the hash).
type FuncCache struct {
	s *store.Store[FuncKey, *mach.Func]
}

// NewFuncCache creates a function cache.
func NewFuncCache(cfg FuncCacheConfig) *FuncCache {
	return &FuncCache{s: store.New(store.Config[FuncKey, *mach.Func]{
		Shards:       cfg.Shards,
		MemoryBudget: cfg.MemoryBudget,
		// The key is already a cryptographic hash; its prefix routes.
		Hash: func(k FuncKey) uint64 { return binary.LittleEndian.Uint64(k[:8]) },
	})}
}

// Stats returns the underlying store counters (hits/misses are per-function
// lookups, MemoryBytes the accounted bytes of the cached bodies).
func (c *FuncCache) Stats() store.Stats { return c.s.Stats() }
