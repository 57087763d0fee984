// Package artstore binds the generic storage layer to the compiler: it
// caches compiled artifacts *together with* their lazily built debugger
// analyses as one memory-accounted unit. The server retains artifacts
// through this package, so every retention path of the daemon — compile
// results, analysis sets, protocol artifact handles, the disk spill tier —
// goes through one store with one budget.
package artstore

import (
	"hash/maphash"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/sem"
	"repro/internal/store"
)

// Artifact is one compiled program plus its shared analysis set. The
// analyses build lazily (or via Precompute) and report their byte cost
// back to the store through a cost hook, so an artifact's accounted size
// grows as its analyses are built and the whole unit is evicted together.
type Artifact struct {
	// Res is the compiled program. A store-backed artifact carries no
	// optimized IR (Res.IR is nil): the debugger reads only the machine
	// code and the checked front end, and SizeBytes never charged for it.
	// Res.Sem may be shared with sibling artifacts of the same name and
	// source under other configs.
	Res      *compile.Result
	Analyses *core.AnalysisSet

	// Metrics describes the compile that produced this artifact: function
	// count, how many back ends actually ran vs. were stitched from the
	// per-function cache, and wall time. Zero for artifacts rehydrated from
	// the disk tier (no compile ran).
	Metrics compile.Metrics

	id string
}

// ID is the artifact's stable content-addressed handle (see compile.Key.ID).
func (a *Artifact) ID() string { return a.id }

// Config tunes a Store. The zero value is a single-shard, unbounded,
// memory-only store.
type Config struct {
	// Shards is the shard count of the in-memory tier (rounded up to a
	// power of two); <= 1 means a single lock.
	Shards int
	// MaxArtifacts bounds resident artifacts; <= 0 means unbounded.
	MaxArtifacts int
	// MemoryBudget bounds the accounted bytes of resident artifacts plus
	// their built analyses; <= 0 means unbounded.
	MemoryBudget int64
	// SpillDir enables the disk tier: evicted and flushed artifacts are
	// serialized there and reloaded on miss, so restarts keep the warm set.
	SpillDir string
	// CompileWorkers bounds the per-function back-end concurrency of the
	// store's compile pipeline; <= 0 means GOMAXPROCS. The bound is shared
	// across concurrent Gets, so a burst of compiles still runs at most
	// CompileWorkers function back ends at once.
	CompileWorkers int
	// SpillDegradeAfter and SpillProbeInterval tune the disk tier's
	// circuit breaker (see store.Config); <= 0 means the store defaults.
	SpillDegradeAfter  int
	SpillProbeInterval time.Duration
}

// DefaultFuncCacheBudget bounds the per-function incremental tier
// (compiled machine bodies keyed by a content hash of each function's
// checked IR plus the config) of a store without a memory budget; a
// store with one gives the tier a quarter of it. Bodies are charged at
// their live size: the eight corpus workloads take 0.94 MB at O2 (2.35 MB
// at O0, O1 and O2), a random program of the mcperf compile workload about
// 42 KB. So the tier keeps the last few dozen programs' bodies, far more
// than one-function edits reuse, while a long-lived store compiling fresh
// programs stops growing.
const DefaultFuncCacheBudget = 2 << 20

// ident is the request identity: exact equality on (name, source, config).
type ident struct {
	Name string
	Src  string
	Cfg  compile.Config
}

var seed = maphash.MakeSeed()

func identHash(m ident) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	h.WriteString(m.Name)
	h.WriteByte(0)
	h.WriteString(m.Src)
	return h.Sum64()
}

// Store retains artifacts. All methods are safe for concurrent use.
type Store struct {
	s    *store.Store[ident, *Artifact]
	pipe *compile.Pipeline
	// built counts the analyses the artifacts' sets have built, over the
	// store's lifetime.
	built atomic.Int64
}

// codec serializes artifacts for the disk tier. Only the compile result
// is persisted; analyses rebuild lazily after rehydration (they derive
// deterministically from the machine code). A decoded program's function
// bodies are checked in full but kept encoded until first use, and each
// body charges the artifact when it loads. A decode reuses the checked
// front end of a resident sibling — same name and source, any config —
// and replays it only when none is resident.
type codec struct {
	st *Store
}

func (c codec) Encode(id string, m ident, a *Artifact) ([]byte, error) {
	return compile.EncodeSpill(m.Cfg, a.Res)
}

func (c codec) Decode(id string, data []byte) (ident, *Artifact, int64, error) {
	res, name, src, cfg, err := compile.DecodeSpillFront(data, c.st.siblingFront)
	if err != nil {
		return ident{}, nil, 0, err
	}
	if got := compile.KeyOf(name, src, cfg).ID(); got != id {
		return ident{}, nil, 0, &IdentityError{Want: id, Got: got}
	}
	m := ident{Name: name, Src: src, Cfg: cfg}
	return m, c.st.newArtifact(m, id, res), res.SizeBytes(), nil
}

// siblingFront returns the checked program of a resident, completed
// artifact compiled from name and src under any config, or nil. Siblings
// share a shard (identHash covers only name and source), so the search
// stays in one shard.
func (st *Store) siblingFront(name, src string) *sem.Program {
	a, ok := st.s.Resident(ident{Name: name, Src: src}, func(m ident, _ *Artifact) bool {
		return m.Name == name && m.Src == src
	})
	if !ok {
		return nil
	}
	return a.Res.Sem
}

// IdentityError reports a spilled artifact whose content does not match
// its content-addressed filename.
type IdentityError struct{ Want, Got string }

func (e *IdentityError) Error() string {
	return "artstore: spilled artifact identity " + e.Got + " does not match handle " + e.Want
}

// New creates an artifact store from cfg.
func New(cfg Config) *Store {
	st := &Store{}
	budget := int64(DefaultFuncCacheBudget)
	if cfg.MemoryBudget > 0 {
		budget = cfg.MemoryBudget / 4
	}
	st.pipe = compile.NewPipeline(compile.PipelineConfig{
		Workers: cfg.CompileWorkers,
		Funcs: compile.NewFuncCache(compile.FuncCacheConfig{
			Shards:       cfg.Shards,
			MemoryBudget: budget,
		}),
	})
	sc := store.Config[ident, *Artifact]{
		Shards:        cfg.Shards,
		MaxEntries:    cfg.MaxArtifacts,
		MemoryBudget:  cfg.MemoryBudget,
		Dir:           cfg.SpillDir,
		Hash:          identHash,
		DegradeAfter:  cfg.SpillDegradeAfter,
		ProbeInterval: cfg.SpillProbeInterval,
	}
	if cfg.SpillDir != "" {
		sc.Codec = codec{st: st}
	}
	st.s = store.New(sc)
	return st
}

// newArtifact builds an Artifact for identity m, whose handle is id,
// around a compile result, wiring its analysis set's cost hook, and its
// machine program's load hook, back into the store so analyses and the
// function bodies a spill read deferred charge the artifact's budget as
// they are built or loaded. A charge reaches only the entry that holds
// this very Artifact: once it is evicted, what it builds is not accounted,
// even if its identity was read back into a new entry.
func (st *Store) newArtifact(m ident, id string, res *compile.Result) *Artifact {
	a := &Artifact{
		Res:      res,
		Analyses: core.NewAnalysisSet(),
		id:       id,
	}
	holds := func(v *Artifact) bool { return v == a }
	charge := func(delta int64) { st.s.AddCostIf(m, delta, holds) }
	a.Analyses.SetCostHook(charge)
	a.Analyses.SetBuildHook(func() { st.built.Add(1) })
	res.Mach.SetLoadHook(charge)
	return a
}

// Get returns the artifact for (name, src, cfg), compiling at most once
// across concurrent callers. hit reports that the pipeline was skipped —
// the artifact came from memory, a coalesced in-flight compile, or the
// disk tier. Failed compiles are not cached.
func (st *Store) Get(name, src string, cfg compile.Config) (a *Artifact, hit bool, err error) {
	m := ident{Name: name, Src: src, Cfg: cfg}
	var id string // set by the id callback, which a miss runs before compiling
	return st.s.Get(m,
		func() string {
			id = compile.KeyOf(name, src, cfg).ID()
			return id
		},
		func() (*Artifact, int64, error) {
			res, metrics, err := st.pipe.Compile(name, src, cfg)
			if err != nil {
				return nil, 0, err
			}
			res.IR = nil
			a := st.newArtifact(m, id, res)
			a.Metrics = metrics
			return a, res.SizeBytes(), nil
		})
}

// PipelineStats returns the store's cumulative compile-pipeline counters.
func (st *Store) PipelineStats() compile.PipelineStats { return st.pipe.Stats() }

// FuncCacheStats returns the incremental tier's store counters.
func (st *Store) FuncCacheStats() store.Stats { return st.pipe.FuncCache().Stats() }

// AnalysesBuilt returns how many analyses the store's artifacts have
// built since the store was created, evicted artifacts included. An
// analysis one artifact shares from another's build counts once; one
// rebuilt after every holder of its facts was dropped counts again.
func (st *Store) AnalysesBuilt() int64 { return st.built.Load() }

// CompileWorkers returns the pipeline's worker bound.
func (st *Store) CompileWorkers() int { return st.pipe.Workers() }

// Lookup returns the artifact with the given handle, consulting memory
// and then the disk tier. It never compiles.
func (st *Store) Lookup(id string) (*Artifact, bool) { return st.s.LookupID(id) }

// Stats returns a consistent per-shard snapshot of the store's counters.
func (st *Store) Stats() store.Stats { return st.s.Stats() }

// Range calls fn with every resident artifact and its handle.
func (st *Store) Range(fn func(id string, a *Artifact)) { st.s.Range(fn) }

// Flush persists the resident artifacts not already on disk to the disk
// tier (no-op without one), so a graceful shutdown keeps its warm set. While the
// breaker has the disk tier degraded, Flush is skipped and reports why.
func (st *Store) Flush() error { return st.s.Flush() }

// Close stops the store's background work (the breaker's recovery
// prober). It does not flush; call Flush first for a warm restart.
func (st *Store) Close() { st.s.Close() }
