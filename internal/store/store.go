// Package store is the unified storage layer behind every compiled-artifact
// and analysis retention path: a sharded, memory-accounted, coalescing LRU
// cache over an optional disk tier.
//
// The store is generic over the request identity M (a comparable struct,
// e.g. {name, source, config}) and the cached value V. Lookups are a cheap
// caller-supplied 64-bit hash (shard selector) plus exact equality on M, so
// the hot hit path never touches a cryptographic hash; the expensive
// content-addressed ID (also the spill filename) is computed only on a
// miss, via the id callback.
//
// Tiers and invariants:
//
//   - In-memory tier: key-hash sharding with per-shard locks, per-shard LRU
//     ordering, and byte-cost accounting. Every entry is charged its value
//     cost at completion; later AddCost calls (e.g. lazily built analyses)
//     charge the same entry, so the artifact and its analyses are accounted
//     — and evicted — as one unit. The per-shard budget is total/shards;
//     whenever a shard's lock is free, its accounted bytes are within its
//     budget (eviction runs in the same critical section as any charge).
//   - Disk tier (optional): evicted completed entries are serialized by the
//     injected Codec and written to Dir keyed by their content-addressed
//     ID, and misses consult the disk before computing, so a process
//     restart keeps its spilled warm set. Flush persists the resident
//     completed set (for graceful shutdown). Disk errors are counted and
//     fall back to compute; they are never fatal.
//   - Spill circuit breaker: after DegradeAfter consecutive disk I/O
//     failures the disk tier is taken out of the request path entirely —
//     the store degrades to memory-only (correct, just colder) — and a
//     background probe re-enables it once the disk answers again. Data
//     errors (corrupt or mismatched spill files) fall back to compute but
//     do not trip the breaker: they indicate bad bytes, not a bad disk.
//   - Coalescing: concurrent Gets of one identity share a single compute;
//     an in-flight entry is never evicted.
package store

import (
	"container/list"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Codec serializes values for the disk tier. Decode returns the identity
// and value reconstructed from data plus the value's accounted byte cost.
type Codec[M comparable, V any] interface {
	Encode(id string, m M, v V) ([]byte, error)
	Decode(id string, data []byte) (M, V, int64, error)
}

// Config tunes a Store. The zero value is a single-shard, unbounded,
// memory-only store.
type Config[M comparable, V any] struct {
	// Shards is the shard count, rounded up to a power of two; <= 1 means
	// one shard (a single-lock store, the legacy cache behavior).
	Shards int
	// MaxEntries bounds resident entries. With one shard the bound is
	// exact (strict global LRU); with many it is enforced per shard at
	// ceil(MaxEntries/Shards), so the global count never exceeds
	// MaxEntries + Shards - 1. <= 0 means unbounded.
	MaxEntries int
	// MemoryBudget bounds accounted bytes across all shards; each shard
	// enforces MemoryBudget/Shards. <= 0 means unbounded.
	MemoryBudget int64
	// Dir enables the disk tier: evicted (and Flushed) entries are
	// serialized there by Codec. Empty means memory-only.
	Dir string
	// Codec is required when Dir is set.
	Codec Codec[M, V]
	// Hash is the cheap 64-bit identity hash used for shard selection and
	// index lookup (e.g. hash/maphash over the request fields). Required.
	// It deliberately need not be collision-free: entries are matched by
	// exact equality on M, the hash only routes.
	Hash func(M) uint64
	// DegradeAfter is the spill circuit breaker's threshold: after this
	// many consecutive disk I/O failures the disk tier is disabled (the
	// store runs memory-only) until the background probe succeeds.
	// <= 0 means DefaultDegradeAfter. Only meaningful with Dir.
	DegradeAfter int
	// ProbeInterval is how often the background probe retries a degraded
	// disk tier; <= 0 means DefaultProbeInterval.
	ProbeInterval time.Duration
}

// Defaults for the spill circuit breaker.
const (
	DefaultDegradeAfter  = 5
	DefaultProbeInterval = 2 * time.Second
)

// Stats is a point-in-time snapshot of the store's counters, taken with
// every shard's lock in turn so per-shard views are internally consistent.
type Stats struct {
	Hits        int64 // served from a completed or in-flight entry (memory or disk)
	Misses      int64 // ran the compute callback
	Evictions   int64 // completed entries dropped by the entry or byte bound
	Entries     int   // resident entries (including in-flight)
	MemoryBytes int64 // accounted bytes of resident completed entries

	SpillHits   int64 // misses served by deserializing the disk tier
	SpillMisses int64 // disk tier consulted and had no (usable) file
	SpillWrites int64 // entries serialized to the disk tier
	SpillErrors int64 // disk tier I/O or codec failures (all non-fatal)

	SpillDegraded     bool  // disk tier currently degraded (memory-only)
	SpillDegradations int64 // times the circuit breaker tripped
	SpillProbes       int64 // background probe attempts while degraded
	FlushErrors       int64 // entries Flush failed (or declined) to persist

	Shards       int
	MemoryBudget int64
}

type entry[M comparable, V any] struct {
	m    M
	id   string // content-addressed id; set before done is closed on the miss path
	elem *list.Element
	done chan struct{} // closed once val/err are filled
	val  V
	err  error
	cost int64 // accounted bytes; guarded by the owning shard's lock
}

type shard[M comparable, V any] struct {
	mu      sync.Mutex
	index   map[M]*entry[M, V]      // request identity -> entry (incl. in-flight)
	byID    map[string]*entry[M, V] // content id -> completed entry
	order   *list.List              // front = most recently used
	bytes   int64
	budget  int64
	maxEnts int

	hits, misses, evictions                          int64
	spillHits, spillMisses, spillWrites, spillErrors int64
}

// Store is a sharded, memory-accounted, coalescing cache. All methods are
// safe for concurrent use.
type Store[M comparable, V any] struct {
	shards []*shard[M, V]
	mask   uint64
	dir    string
	codec  Codec[M, V]
	hash   func(M) uint64

	brk         *breaker // nil without a disk tier
	flushErrors atomic.Int64
}

// breaker is the spill tier's circuit breaker. Consecutive disk I/O
// failures (reads, writes, renames — not decode/data errors) trip it;
// while tripped the store skips the disk entirely and a background probe
// goroutine retries until the disk answers, then re-enables the tier and
// exits. One probe goroutine exists at a time; close stops it for good.
type breaker struct {
	threshold int
	interval  time.Duration
	probe     func() error

	degraded    atomic.Bool
	degradation atomic.Int64
	probes      atomic.Int64

	mu      sync.Mutex
	consec  int
	probing bool
	closed  bool
	stop    chan struct{}
}

// failure records one disk I/O failure, tripping the breaker (and
// launching the probe) at the threshold.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec++
	if b.consec < b.threshold || b.degraded.Load() {
		return
	}
	b.degraded.Store(true)
	b.degradation.Add(1)
	if !b.probing && !b.closed {
		b.probing = true
		go b.probeLoop()
	}
}

// success records one healthy disk response (a clean read, write, or
// not-found), resetting the consecutive-failure count.
func (b *breaker) success() {
	b.mu.Lock()
	b.consec = 0
	b.mu.Unlock()
}

func (b *breaker) probeLoop() {
	t := time.NewTicker(b.interval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			b.mu.Lock()
			b.probing = false
			b.mu.Unlock()
			return
		case <-t.C:
			b.probes.Add(1)
			if b.probe() == nil {
				b.mu.Lock()
				b.consec = 0
				b.degraded.Store(false)
				b.probing = false
				b.mu.Unlock()
				return
			}
		}
	}
}

func (b *breaker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		close(b.stop)
	}
}

// diskUp reports whether the disk tier is configured and not degraded.
func (s *Store[M, V]) diskUp() bool {
	return s.dir != "" && s.codec != nil && !s.brk.degraded.Load()
}

// New creates a store from cfg.
func New[M comparable, V any](cfg Config[M, V]) *Store[M, V] {
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	perBudget := int64(0)
	if cfg.MemoryBudget > 0 {
		perBudget = cfg.MemoryBudget / int64(n)
		if perBudget == 0 {
			perBudget = 1 // tiny budget: keep enforcing, however thrashy
		}
	}
	perEnts := 0
	if cfg.MaxEntries > 0 {
		perEnts = (cfg.MaxEntries + n - 1) / n
	}
	if cfg.Hash == nil {
		panic("store: Config.Hash is required")
	}
	s := &Store[M, V]{shards: make([]*shard[M, V], n), mask: uint64(n - 1), dir: cfg.Dir, codec: cfg.Codec, hash: cfg.Hash}
	if cfg.Dir != "" {
		threshold := cfg.DegradeAfter
		if threshold <= 0 {
			threshold = DefaultDegradeAfter
		}
		interval := cfg.ProbeInterval
		if interval <= 0 {
			interval = DefaultProbeInterval
		}
		s.brk = &breaker{
			threshold: threshold,
			interval:  interval,
			probe:     s.probeDisk,
			stop:      make(chan struct{}),
		}
	}
	for i := range s.shards {
		s.shards[i] = &shard[M, V]{
			index:   map[M]*entry[M, V]{},
			byID:    map[string]*entry[M, V]{},
			order:   list.New(),
			budget:  perBudget,
			maxEnts: perEnts,
		}
	}
	return s
}

// Get returns the value for identity m, computing it at most once across
// concurrent callers. id produces the content-addressed identifier and is
// invoked only on a miss; compute builds the value and reports its byte
// cost. hit reports that compute was skipped (the value came from a
// completed or in-flight entry, or was rehydrated from the disk tier).
// Failed computes are not cached: every coalesced waiter receives the
// error and the identity is forgotten.
func (s *Store[M, V]) Get(m M, id func() string, compute func() (V, int64, error)) (V, bool, error) {
	sh := s.shards[s.hash(m)&s.mask]
	sh.mu.Lock()
	if e, ok := sh.index[m]; ok {
		sh.hits++
		sh.order.MoveToFront(e.elem)
		sh.mu.Unlock()
		<-e.done
		return e.val, true, e.err
	}
	e := &entry[M, V]{m: m, done: make(chan struct{})}
	e.elem = sh.order.PushFront(e)
	sh.index[m] = e
	sh.mu.Unlock()

	// A panicking id or compute callback must not strand the in-flight
	// entry: coalesced waiters block on e.done forever if it never
	// resolves. Resolve with an error (waiters fail, identity forgotten),
	// then let the panic continue to the caller's recovery.
	defer func() {
		if r := recover(); r != nil {
			if !completed(e) {
				var zero V
				s.resolve(sh, e, zero, 0, fmt.Errorf("store: compute panicked: %v", r), resolveCompute)
			}
			panic(r)
		}
	}()

	e.id = id()
	if v, cost, ok := s.loadSpilled(sh, e); ok {
		s.resolve(sh, e, v, cost, nil, resolveDiskGet)
		return e.val, true, nil
	}
	v, cost, err := compute()
	s.resolve(sh, e, v, cost, err, resolveCompute)
	return e.val, false, e.err
}

// LookupID returns the completed entry with the given content-addressed
// id, consulting memory first and then the disk tier (rehydrating into
// memory on a disk hit). It never runs a compute; ok is false when the id
// is nowhere resident.
func (s *Store[M, V]) LookupID(id string) (V, bool) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if e, ok := sh.byID[id]; ok {
			// Handle lookups refresh recency but do not count as cache
			// hits: Hits/Misses mean compile (Get) traffic.
			sh.order.MoveToFront(e.elem)
			sh.mu.Unlock()
			<-e.done
			if e.err == nil {
				return e.val, true
			}
			var zero V
			return zero, false
		}
		sh.mu.Unlock()
	}
	var zero V
	if !s.diskUp() {
		return zero, false
	}
	data, err := s.readSpill(id)
	if err != nil {
		if !os.IsNotExist(err) {
			sh0 := s.shards[0]
			sh0.mu.Lock()
			sh0.spillErrors++
			sh0.mu.Unlock()
			s.brk.failure()
		} else {
			s.brk.success()
		}
		return zero, false
	}
	s.brk.success()
	m, v, cost, err := s.codec.Decode(id, data)
	if err != nil {
		// Bad bytes, not a bad disk: fall back without tripping the
		// breaker, and drop the corrupt file so it cannot wedge every
		// future lookup of this id (a later eviction re-spills it whole).
		sh0 := s.shards[0]
		sh0.mu.Lock()
		sh0.spillErrors++
		sh0.mu.Unlock()
		os.Remove(s.spillPath(id))
		return zero, false
	}
	// Re-admit into the identity's home shard so later Gets hit in memory.
	sh := s.shards[s.hash(m)&s.mask]
	sh.mu.Lock()
	if e, ok := sh.index[m]; ok {
		// Raced with a concurrent Get for the same identity: defer to it.
		sh.order.MoveToFront(e.elem)
		sh.mu.Unlock()
		<-e.done
		if e.err == nil {
			return e.val, true
		}
		return zero, false
	}
	e := &entry[M, V]{m: m, id: id, done: make(chan struct{})}
	e.elem = sh.order.PushFront(e)
	sh.index[m] = e
	sh.mu.Unlock()
	s.resolve(sh, e, v, cost, nil, resolveLookup)
	return v, true
}

// AddCost charges delta additional bytes to the completed entry with the
// given identity. Charges to evicted or unknown identities are dropped:
// the memory they describe leaves the accounted set with the entry.
// Eviction runs immediately if the charge pushes the shard over budget, so
// later-built analyses evict in lockstep with their artifact.
func (s *Store[M, V]) AddCost(m M, delta int64) {
	sh := s.shards[s.hash(m)&s.mask]
	sh.mu.Lock()
	e, ok := sh.index[m]
	if !ok || !completed(e) {
		sh.mu.Unlock()
		return
	}
	e.cost += delta
	sh.bytes += delta
	victims := sh.evictLocked()
	sh.mu.Unlock()
	s.spill(sh, victims)
}

// Flush serializes every resident completed entry to the disk tier, so a
// graceful shutdown persists the warm set (not only what eviction already
// spilled). It is a no-op without a disk tier. Entries that fail to
// persist — or the whole set, when the spill tier is degraded — are
// counted in FlushErrors and reported in the returned error; the store
// itself remains fully usable either way.
func (s *Store[M, V]) Flush() error {
	if s.dir == "" || s.codec == nil {
		return nil
	}
	if !s.diskUp() {
		s.flushErrors.Add(1)
		return fmt.Errorf("store: flush skipped: spill tier degraded (running memory-only)")
	}
	var failed int64
	var firstErr error
	for _, sh := range s.shards {
		sh.mu.Lock()
		victims := make([]*entry[M, V], 0, len(sh.byID))
		for _, e := range sh.byID {
			victims = append(victims, e)
		}
		sh.mu.Unlock()
		_, errs, err := s.spill(sh, victims)
		failed += errs
		if firstErr == nil {
			firstErr = err
		}
	}
	if failed > 0 {
		s.flushErrors.Add(failed)
		return fmt.Errorf("store: flush failed to persist %d entries: %w", failed, firstErr)
	}
	return nil
}

// Close stops the spill tier's background probe goroutine, if one is
// running. The store remains usable after Close (the disk tier simply
// stays degraded if it was); Close exists so owners shut down cleanly.
func (s *Store[M, V]) Close() {
	if s.brk != nil {
		s.brk.close()
	}
}

// Range calls fn with every resident completed entry's id and value. The
// snapshot is per shard: entries are collected under each shard lock and
// fn runs outside it.
func (s *Store[M, V]) Range(fn func(id string, v V)) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		ids := make([]string, 0, len(sh.byID))
		vals := make([]V, 0, len(sh.byID))
		for id, e := range sh.byID {
			ids = append(ids, id)
			vals = append(vals, e.val)
		}
		sh.mu.Unlock()
		for i := range ids {
			fn(ids[i], vals[i])
		}
	}
}

// Stats sums the per-shard counters, taking each shard's lock in turn so
// every shard's view (entries, bytes, hit/miss/eviction counts) is
// internally consistent.
func (s *Store[M, V]) Stats() Stats {
	st := Stats{Shards: len(s.shards)}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Entries += len(sh.index)
		st.MemoryBytes += sh.bytes
		st.SpillHits += sh.spillHits
		st.SpillMisses += sh.spillMisses
		st.SpillWrites += sh.spillWrites
		st.SpillErrors += sh.spillErrors
		st.MemoryBudget += sh.budget
		sh.mu.Unlock()
	}
	if s.brk != nil {
		st.SpillDegraded = s.brk.degraded.Load()
		st.SpillDegradations = s.brk.degradation.Load()
		st.SpillProbes = s.brk.probes.Load()
	}
	st.FlushErrors = s.flushErrors.Load()
	return st
}

// Len returns the number of resident entries (including in-flight).
func (s *Store[M, V]) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.index)
		sh.mu.Unlock()
	}
	return n
}

// resolveKind says how a completed entry affects the counters: a computed
// miss, a Get served by the disk tier (a hit plus a spill hit), or a
// LookupID rehydration (spill activity only — handle lookups are not
// compile traffic).
type resolveKind int

const (
	resolveCompute resolveKind = iota
	resolveDiskGet
	resolveLookup
)

// resolve completes an in-flight entry with its value or error, charges
// its cost, updates the hit/miss counters, and runs eviction. The entry
// completes (done closes) under the shard lock, in the same critical
// section that charges its cost and indexes its id: evictLocked and AddCost
// treat a completed entry as charged, so no lock holder may observe one
// that is completed but not yet accounted.
func (s *Store[M, V]) resolve(sh *shard[M, V], e *entry[M, V], v V, cost int64, err error, kind resolveKind) {
	sh.mu.Lock()
	e.val, e.err = v, err
	if err != nil {
		sh.misses++
		if cur, ok := sh.index[e.m]; ok && cur == e {
			delete(sh.index, e.m)
			sh.order.Remove(e.elem)
		}
		close(e.done)
		sh.mu.Unlock()
		return
	}
	switch kind {
	case resolveCompute:
		sh.misses++
	case resolveDiskGet:
		sh.hits++
		sh.spillHits++
	case resolveLookup:
		sh.spillHits++
	}
	e.cost = cost
	sh.bytes += cost
	sh.byID[e.id] = e
	close(e.done)
	victims := sh.evictLocked()
	sh.mu.Unlock()
	s.spill(sh, victims)
}

func completed[M comparable, V any](e *entry[M, V]) bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// evictLocked drops least-recently-used completed entries until both the
// entry bound and the byte budget hold, returning the victims for the
// caller to spill outside the lock. In-flight entries are never evicted:
// coalesced waiters hold them.
func (sh *shard[M, V]) evictLocked() []*entry[M, V] {
	var victims []*entry[M, V]
	over := func() bool {
		return (sh.maxEnts > 0 && len(sh.index) > sh.maxEnts) ||
			(sh.budget > 0 && sh.bytes > sh.budget)
	}
	for el := sh.order.Back(); el != nil && over(); {
		e := el.Value.(*entry[M, V])
		prev := el.Prev()
		if completed(e) {
			delete(sh.index, e.m)
			delete(sh.byID, e.id)
			sh.order.Remove(el)
			sh.bytes -= e.cost
			sh.evictions++
			victims = append(victims, e)
		}
		el = prev
	}
	return victims
}

// loadSpilled tries to serve an in-flight miss from the disk tier.
func (s *Store[M, V]) loadSpilled(sh *shard[M, V], e *entry[M, V]) (v V, cost int64, ok bool) {
	var zero V
	if !s.diskUp() {
		return zero, 0, false
	}
	data, err := s.readSpill(e.id)
	if err != nil {
		sh.mu.Lock()
		if os.IsNotExist(err) {
			sh.spillMisses++
		} else {
			sh.spillErrors++
		}
		sh.mu.Unlock()
		if os.IsNotExist(err) {
			s.brk.success()
		} else {
			s.brk.failure()
		}
		return zero, 0, false
	}
	s.brk.success()
	m, v, cost, err := s.codec.Decode(e.id, data)
	if err != nil || m != e.m {
		// Corrupt, stale, or colliding file: fall back to compute and drop
		// the bad file (the recompute's eviction re-spills it whole). Data
		// errors do not trip the breaker — the disk answered, the bytes
		// were bad.
		os.Remove(s.spillPath(e.id))
		sh.mu.Lock()
		sh.spillErrors++
		sh.mu.Unlock()
		return zero, 0, false
	}
	return v, cost, true
}

// readSpill reads one spill file ("store.spill.read" fault point).
func (s *Store[M, V]) readSpill(id string) ([]byte, error) {
	if err := fault.Check("store.spill.read"); err != nil {
		return nil, err
	}
	return os.ReadFile(s.spillPath(id))
}

// spill serializes evicted entries to the disk tier (outside any lock),
// reporting how many wrote and how many failed. It stops early if the
// circuit breaker trips mid-batch — no point hammering a dead disk.
func (s *Store[M, V]) spill(sh *shard[M, V], victims []*entry[M, V]) (writes, errs int64, firstErr error) {
	if len(victims) == 0 || !s.diskUp() {
		return 0, 0, nil
	}
	for _, e := range victims {
		if e.err != nil {
			continue
		}
		ioErr, err := s.writeSpill(e)
		if err != nil {
			errs++
			if firstErr == nil {
				firstErr = err
			}
			if ioErr {
				s.brk.failure()
			}
		} else {
			writes++
			s.brk.success()
		}
		if !s.diskUp() {
			break
		}
	}
	if writes != 0 || errs != 0 {
		sh.mu.Lock()
		sh.spillWrites += writes
		sh.spillErrors += errs
		sh.mu.Unlock()
	}
	return writes, errs, firstErr
}

// writeSpill atomically writes one entry's serialized form. ioErr
// distinguishes disk I/O failures (which feed the circuit breaker) from
// codec failures (which do not). Fault points: "store.spill.partial"
// truncates the payload (the write "succeeds", leaving a corrupt file for
// the read path's digest check to reject), "store.spill.write" and
// "store.spill.rename" fail the corresponding syscalls.
func (s *Store[M, V]) writeSpill(e *entry[M, V]) (ioErr bool, err error) {
	data, err := s.codec.Encode(e.id, e.m, e.val)
	if err != nil {
		return false, err
	}
	data = fault.Cut("store.spill.partial", data)
	if err := fault.Check("store.spill.write"); err != nil {
		return true, err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return true, err
	}
	tmp, err := os.CreateTemp(s.dir, ".spill-*")
	if err != nil {
		return true, err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return true, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return true, err
	}
	if err := fault.Check("store.spill.rename"); err != nil {
		os.Remove(tmp.Name())
		return true, err
	}
	if err := os.Rename(tmp.Name(), s.spillPath(e.id)); err != nil {
		os.Remove(tmp.Name())
		return true, err
	}
	return false, nil
}

// probeDisk is the circuit breaker's health check: write, read back, and
// remove a probe file. It shares the read/write fault points, so an
// injected outage keeps the tier degraded until the schedule clears.
func (s *Store[M, V]) probeDisk() error {
	if err := fault.Check("store.spill.write"); err != nil {
		return err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(s.dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	defer os.Remove(name)
	_, werr := f.Write([]byte("probe"))
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	if err := fault.Check("store.spill.read"); err != nil {
		return err
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	if string(data) != "probe" {
		return fmt.Errorf("store: probe readback mismatch")
	}
	return nil
}

func (s *Store[M, V]) spillPath(id string) string {
	return filepath.Join(s.dir, safeName(id)+".art")
}

// safeName keeps spill filenames filesystem-safe whatever the id alphabet.
func safeName(id string) string {
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_') {
			return "x" + hex.EncodeToString([]byte(id))
		}
	}
	return id
}
