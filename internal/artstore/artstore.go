// Package artstore binds the generic storage layer to the compiler: it
// caches compiled artifacts *together with* their lazily built debugger
// analyses as one memory-accounted unit. The server and the public API
// both retain artifacts through this package, so every retention path in
// the system — compile results, analysis sets, protocol artifact handles,
// the disk spill tier — goes through one store with one budget.
package artstore

import (
	"hash/maphash"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/store"
)

// Artifact is one compiled program plus its shared analysis set. The
// analyses build lazily (or via Precompute) and report their byte cost
// back to the store through a cost hook, so an artifact's accounted size
// grows as its analyses are built and the whole unit is evicted together.
type Artifact struct {
	Res      *compile.Result
	Analyses *core.AnalysisSet

	// Metrics describes the compile that produced this artifact: function
	// count, how many back ends actually ran vs. were stitched from the
	// per-function cache, and wall time. Zero for artifacts rehydrated from
	// the disk tier (no compile ran).
	Metrics compile.Metrics

	id   string
	name string
	src  string
	cfg  compile.Config
}

// ID is the artifact's stable content-addressed handle (see compile.Key.ID).
func (a *Artifact) ID() string { return a.id }

// Name returns the source file name the artifact was compiled from.
func (a *Artifact) Name() string { return a.name }

// Config returns the pipeline configuration the artifact was compiled under.
func (a *Artifact) Config() compile.Config { return a.cfg }

// Config tunes a Store. The zero value is a single-shard, unbounded,
// memory-only store with default classifier options.
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
	// AnalysisOpts configures the classifier analyses of artifacts created
	// by this store.
	AnalysisOpts core.Options
	// CompileWorkers bounds the per-function back-end concurrency of the
	// store's compile pipeline; <= 0 means GOMAXPROCS. The bound is shared
	// across concurrent Gets, so a burst of compiles still runs at most
	// CompileWorkers function back ends at once.
	CompileWorkers int
	// FuncCacheBudget bounds the accounted bytes of the per-function
	// incremental tier (encoded machine-code images keyed by content hash
	// of each function's checked IR + config). 0 means a default of
	// MemoryBudget/4, or DefaultFuncCacheBudget when MemoryBudget is
	// unbounded; negative disables incremental reuse entirely.
	FuncCacheBudget int64
	// SpillDegradeAfter and SpillProbeInterval tune the disk tier's
	// circuit breaker (see store.Config); <= 0 means the store defaults.
	SpillDegradeAfter  int
	SpillProbeInterval time.Duration
}

// DefaultFuncCacheBudget bounds the per-function tier of a store with
// neither a function-cache nor a memory budget. It is a little over twice
// what the eight corpus workloads use at three configurations (0.9 MB),
// so one-function edits keep reusing their siblings, while a long-lived
// store compiling fresh programs stops growing.
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
	opts core.Options
	pipe *compile.Pipeline
}

// codec serializes artifacts for the disk tier. Only the compile result
// is persisted; analyses rebuild lazily after rehydration (they derive
// deterministically from the machine code).
type codec struct {
	st *Store
}

func (c codec) Encode(id string, m ident, a *Artifact) ([]byte, error) {
	return compile.EncodeSpill(m.Cfg, a.Res)
}

func (c codec) Decode(id string, data []byte) (ident, *Artifact, int64, error) {
	res, name, src, cfg, err := compile.DecodeSpill(data)
	if err != nil {
		return ident{}, nil, 0, err
	}
	if got := compile.KeyOf(name, src, cfg).ID(); got != id {
		return ident{}, nil, 0, &IdentityError{Want: id, Got: got}
	}
	m := ident{Name: name, Src: src, Cfg: cfg}
	return m, c.st.newArtifact(m, res), res.SizeBytes(), nil
}

// IdentityError reports a spilled artifact whose content does not match
// its content-addressed filename.
type IdentityError struct{ Want, Got string }

func (e *IdentityError) Error() string {
	return "artstore: spilled artifact identity " + e.Got + " does not match handle " + e.Want
}

// New creates an artifact store from cfg.
func New(cfg Config) *Store {
	st := &Store{opts: cfg.AnalysisOpts}
	var funcs *compile.FuncCache
	if cfg.FuncCacheBudget >= 0 {
		budget := cfg.FuncCacheBudget
		if budget == 0 {
			budget = DefaultFuncCacheBudget
			if cfg.MemoryBudget > 0 {
				budget = cfg.MemoryBudget / 4
			}
		}
		funcs = compile.NewFuncCache(compile.FuncCacheConfig{
			Shards:       cfg.Shards,
			MemoryBudget: budget,
		})
	}
	st.pipe = compile.NewPipeline(compile.PipelineConfig{
		Workers: cfg.CompileWorkers,
		Funcs:   funcs,
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

// newArtifact builds an Artifact for identity m around a compile result,
// wiring its analysis set's cost hook back into the store so analyses
// charge the artifact's budget as they are built.
func (st *Store) newArtifact(m ident, res *compile.Result) *Artifact {
	a := &Artifact{
		Res:      res,
		Analyses: core.NewAnalysisSetWith(st.opts),
		id:       compile.KeyOf(m.Name, m.Src, m.Cfg).ID(),
		name:     m.Name,
		src:      m.Src,
		cfg:      m.Cfg,
	}
	a.Analyses.SetCostHook(func(delta int64) { st.s.AddCost(m, delta) })
	return a
}

// Get returns the artifact for (name, src, cfg), compiling at most once
// across concurrent callers. hit reports that the pipeline was skipped —
// the artifact came from memory, a coalesced in-flight compile, or the
// disk tier. Failed compiles are not cached.
func (st *Store) Get(name, src string, cfg compile.Config) (a *Artifact, hit bool, err error) {
	m := ident{Name: name, Src: src, Cfg: cfg}
	return st.s.Get(m,
		func() string { return compile.KeyOf(name, src, cfg).ID() },
		func() (*Artifact, int64, error) {
			res, metrics, err := st.pipe.Compile(name, src, cfg)
			if err != nil {
				return nil, 0, err
			}
			a := st.newArtifact(m, res)
			a.Metrics = metrics
			return a, res.SizeBytes(), nil
		})
}

// PipelineStats returns the store's cumulative compile-pipeline counters.
func (st *Store) PipelineStats() compile.PipelineStats { return st.pipe.Stats() }

// FuncCacheStats returns the incremental tier's store counters; ok is
// false when incremental reuse is disabled.
func (st *Store) FuncCacheStats() (store.Stats, bool) {
	fc := st.pipe.FuncCache()
	if fc == nil {
		return store.Stats{}, false
	}
	return fc.Stats(), true
}

// CompileWorkers returns the pipeline's worker bound.
func (st *Store) CompileWorkers() int { return st.pipe.Workers() }

// Lookup returns the artifact with the given handle, consulting memory
// and then the disk tier. It never compiles.
func (st *Store) Lookup(id string) (*Artifact, bool) { return st.s.LookupID(id) }

// Stats returns a consistent per-shard snapshot of the store's counters.
func (st *Store) Stats() store.Stats { return st.s.Stats() }

// Range calls fn with every resident artifact and its handle.
func (st *Store) Range(fn func(id string, a *Artifact)) { st.s.Range(fn) }

// Flush persists the resident artifact set to the disk tier (no-op
// without one), so a graceful shutdown keeps its warm set. While the
// breaker has the disk tier degraded, Flush is skipped and reports why.
func (st *Store) Flush() error { return st.s.Flush() }

// Close stops the store's background work (the breaker's recovery
// prober). It does not flush; call Flush first for a warm restart.
func (st *Store) Close() { st.s.Close() }

// Len returns the number of resident artifacts (including in-flight).
func (st *Store) Len() int { return st.s.Len() }
