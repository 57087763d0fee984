package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"time"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/debugger"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/mach"
	"repro/internal/opt"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/sem"
	"repro/internal/server"
	"repro/internal/store"
)

// shadow is the library-level half of the traced replay. For every
// request the replayed server answered, it makes the same calls the
// server's handler makes, in the handler's order, on its own stack built
// from the same public constructors (store, compile, core, debugger,
// coverage), and gives each call a span. Running the two side by side
// keeps the server itself free of tracing: a layer's time is measured on
// the shadow, and what the shadow cannot see (decode aside, dispatch, the
// session table, response building and encoding) is server.serve minus
// the library spans.
type shadow struct {
	rec  *recorder
	opts server.Options
	st   *store.Store[ident, *shadowArt]
	pipe *compile.Pipeline

	sessions map[string]*shadowSess // by the server's session id
	seen     map[compile.FuncKey]bool

	// Counts made where the work happens.
	analyses  int64 // analyses built
	vars      int64 // variable reports classified, fields included
	instrs    int64 // VM instructions executed
	backends  int64 // function back ends probed
	pipelines int64 // compiles that ran the pipeline
}

type ident struct {
	Name, Src string
	Cfg       compile.Config
}

type shadowArt struct {
	res *compile.Result
	an  *core.AnalysisSet
}

type shadowSess struct {
	art *shadowArt
	dbg *debugger.Debugger
}

var shadowSeed = maphash.MakeSeed()

// newShadow builds the stack the way artstore.New and server.New build
// theirs from opts, with the disk tier in spill.
func newShadow(rec *recorder, opts server.Options, spill string) *shadow {
	sh := &shadow{rec: rec, opts: opts, sessions: map[string]*shadowSess{}, seen: map[compile.FuncKey]bool{}}
	if sh.opts.StepBudget <= 0 {
		sh.opts.StepBudget = server.DefaultStepBudget
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = server.DefaultShards
	}
	cache := opts.CacheSize
	if cache <= 0 {
		cache = server.DefaultCacheSize
	}
	fcBudget := int64(0)
	if opts.MemoryBudget > 0 {
		fcBudget = opts.MemoryBudget / 4
	}
	sh.pipe = compile.NewPipeline(compile.PipelineConfig{
		Workers: opts.CompileWorkers,
		Funcs:   compile.NewFuncCache(compile.FuncCacheConfig{Shards: shards, MemoryBudget: fcBudget}),
	})
	sc := store.Config[ident, *shadowArt]{
		Shards:       shards,
		MaxEntries:   cache,
		MemoryBudget: opts.MemoryBudget,
		Hash: func(m ident) uint64 {
			var h maphash.Hash
			h.SetSeed(shadowSeed)
			h.WriteString(m.Name)
			h.WriteByte(0)
			h.WriteString(m.Src)
			return h.Sum64()
		},
	}
	if opts.SpillDir != "" {
		sc.Dir = spill
		sc.Codec = shadowCodec{sh}
	}
	sh.st = store.New(sc)
	return sh
}

func (sh *shadow) close() { sh.st.Close() }

// newArt wires an artifact's analyses to charge the store, as artstore
// does.
func (sh *shadow) newArt(m ident, res *compile.Result) *shadowArt {
	a := &shadowArt{res: res, an: core.NewAnalysisSet()}
	a.an.SetCostHook(func(d int64) { sh.st.AddCost(m, d) })
	return a
}

// shadowCodec is the disk-tier codec artstore uses, with spans.
type shadowCodec struct{ sh *shadow }

func (c shadowCodec) Encode(id string, m ident, a *shadowArt) ([]byte, error) {
	sp := c.sh.rec.begin("store.spill.write")
	defer c.sh.rec.end(sp)
	return compile.EncodeSpill(m.Cfg, a.res)
}

func (c shadowCodec) Decode(id string, data []byte) (ident, *shadowArt, int64, error) {
	sp := c.sh.rec.begin("store.spill.read")
	defer c.sh.rec.end(sp)
	res, name, src, cfg, err := compile.DecodeSpill(data)
	if err != nil {
		return ident{}, nil, 0, err
	}
	if got := compile.KeyOf(name, src, cfg).ID(); got != id {
		return ident{}, nil, 0, fmt.Errorf("spilled artifact %s does not match handle %s", got, id)
	}
	m := ident{name, src, cfg}
	return m, c.sh.newArt(m, res), res.SizeBytes(), nil
}

// configOf mirrors the server's wire-to-pipeline configuration mapping.
func configOf(spec *server.ConfigSpec) compile.Config {
	cfg := compile.O2()
	if spec == nil {
		return cfg
	}
	switch spec.Opt {
	case "O1":
		cfg.Opt = opt.O1()
	case "O0":
		cfg = compile.O0()
	}
	if spec.RegAlloc != nil {
		cfg.RegAlloc = *spec.RegAlloc
	}
	if spec.Sched != nil {
		cfg.Sched = *spec.Sched
	}
	return cfg
}

// apply replays one request the server answered: it records the
// request's server.serve span, times decoding its exact line, and makes
// the handler's library calls.
func (sh *shadow) apply(line []byte, resp *server.Response, start time.Time, serve time.Duration) {
	sh.rec.request(resp.ID, start, serve)
	t := time.Now()
	var req server.Request
	err := json.Unmarshal(line, &req)
	d := time.Since(t)
	if sh.rec.on {
		s := int64(t.Sub(sh.rec.t0))
		sh.rec.add("server.decode", s, s+int64(d), sh.rec.root)
	}
	if err != nil || !resp.OK {
		return
	}
	switch req.Cmd {
	case "compile":
		sh.compile(&req)
	case "open-session":
		a := sh.lookup(req.Artifact)
		sp := sh.rec.begin("debugger.open")
		dbg, err := debugger.NewShared(a.res, a.an)
		sh.rec.end(sp)
		if err == nil {
			dbg.VM.MaxSteps = sh.opts.StepBudget
			dbg.VM.MaxOutput = sh.opts.OutputLimit
			sh.sessions[resp.Session] = &shadowSess{art: a, dbg: dbg}
		}
	case "coverage":
		a := sh.lookup(req.Artifact)
		for _, f := range a.res.Mach.Funcs {
			sh.analyze(a, f)
		}
		sp := sh.rec.begin("coverage.sweep")
		coverage.Sweep(a.res, a.an)
		sh.rec.end(sp)
	case "break":
		s := sh.sessions[req.Session]
		if f := s.art.res.Mach.LookupFunc(req.Func); f != nil {
			sh.analyze(s.art, f)
		}
		sp := sh.rec.begin("debugger.break")
		s.dbg.BreakAtStmt(req.Func, *req.Stmt) //nolint:errcheck // the server answered ok
		sh.rec.end(sp)
	case "continue", "step":
		s := sh.sessions[req.Session]
		run := s.dbg.Continue
		if req.Cmd == "step" {
			run = s.dbg.Step
		}
		before := s.dbg.VM.Steps
		sp := sh.rec.begin("vm.run")
		run() //nolint:errcheck // the server answered ok
		sh.rec.end(sp)
		if sh.rec.on {
			sh.instrs += s.dbg.VM.Steps - before
		}
	case "info", "print":
		s := sh.sessions[req.Session]
		if bp := s.dbg.Stopped(); bp != nil {
			sh.analyze(s.art, bp.Fn)
		}
		sp := sh.rec.begin("core.classify")
		var rs []*debugger.VarReport
		if req.Cmd == "info" {
			rs, _ = s.dbg.Info()
		} else if r, err := s.dbg.Print(req.Var); err == nil {
			rs = []*debugger.VarReport{r}
		}
		sh.rec.end(sp)
		sp = sh.rec.begin("debugger.display")
		n := display(rs)
		sh.rec.end(sp)
		if sh.rec.on {
			sh.vars += int64(n)
		}
	case "close":
		s := sh.sessions[req.Session]
		s.dbg.Output()
		delete(sh.sessions, req.Session)
	}
}

// display renders reports as the server's response does and counts them.
func display(rs []*debugger.VarReport) int {
	n := 0
	for _, r := range rs {
		_ = r.Class.State.String()
		_ = r.Display()
		n += 1 + display(r.Fields)
	}
	return n
}

// lookup resolves an artifact handle like the server's open and coverage.
func (sh *shadow) lookup(id string) *shadowArt {
	sp := sh.rec.begin("store.lookup")
	defer sh.rec.end(sp)
	a, ok := sh.st.LookupID(id)
	if !ok {
		panic(fmt.Sprintf("shadow lost artifact %s the server still has", id))
	}
	return a
}

// analyze builds f's analysis if it is not built yet, so a lazy build is
// its own span rather than hidden in the call that triggered it.
func (sh *shadow) analyze(a *shadowArt, f *mach.Func) {
	before := a.an.Built()
	sp := sh.rec.begin("core.analyze")
	a.an.Of(f)
	if n := a.an.Built() - before; n > 0 {
		sh.rec.end(sp)
		if sh.rec.on {
			sh.analyses += n
		}
		return
	}
	sh.rec.cancel(sp)
}

func (sh *shadow) compile(req *server.Request) {
	name, src := req.Name, req.Src
	if req.Workload != "" {
		name, src = req.Workload+".mc", bench.MustSource(req.Workload)
	}
	if name == "" {
		name = "input.mc"
	}
	cfg := configOf(req.Config)
	m := ident{name, src, cfg}
	pipeSpan := -1
	var metrics compile.Metrics
	computed := false
	sp := sh.rec.begin("store.get")
	a, hit, err := sh.st.Get(m,
		func() string { return compile.KeyOf(name, src, cfg).ID() },
		func() (*shadowArt, int64, error) {
			pipeSpan = sh.rec.begin("compile.pipeline")
			res, mt, err := sh.pipe.Compile(name, src, cfg)
			sh.rec.end(pipeSpan)
			if err != nil {
				return nil, 0, err
			}
			metrics, computed = mt, true
			return sh.newArt(m, res), res.SizeBytes(), nil
		})
	sh.rec.end(sp)
	if err != nil {
		return
	}
	if computed {
		sh.probe(name, src, cfg, pipeSpan, metrics)
	}
	if !hit {
		before := a.an.Built()
		sp := sh.rec.begin("core.analyze")
		a.an.Precompute(a.res.Mach, sh.opts.AnalysisWorkers)
		sh.rec.end(sp)
		if sh.rec.on {
			sh.analyses += a.an.Built() - before
		}
	}
}

// probe measures the parts of a pipeline compile the pipeline cannot
// report by itself: it reruns the front end, the function keys and the
// back end of each function the compile actually built, outside any span,
// and lays the measured parts out as children of the compile's span. What
// they do not cover is the pipeline's own work, the function cache's
// encode and stitch, which is the funccache.stitch row.
func (sh *shadow) probe(name, src string, cfg compile.Config, pipeSpan int, m compile.Metrics) {
	t := time.Now()
	sp, err := sem.CheckSource(name, src)
	if err != nil {
		return
	}
	prog := ir.Build(sp)
	front := time.Since(t)
	t = time.Now()
	sig := compile.GlobalsSigOf(prog, cfg)
	var fresh []*ir.Func
	for _, f := range prog.Funcs {
		k := compile.FuncKeyOf(f, sig)
		if !sh.seen[k] {
			fresh = append(fresh, f)
		}
		sh.seen[k] = true
	}
	keys := time.Since(t)
	if !sh.rec.on {
		return
	}
	// The function cache's residency is modelled by the keys seen so far;
	// if an eviction made the two disagree, time every function and scale.
	scale := 1.0
	if len(fresh) != m.FuncsCompiled {
		fresh = prog.Funcs
		scale = float64(m.FuncsCompiled) / float64(max(1, len(prog.Funcs)))
	}
	var stage [4]time.Duration
	for _, f := range fresh {
		t := time.Now()
		opt.RunFunc(f, cfg.Opt)
		t1 := time.Now()
		mf := lower.LowerFunc(f)
		t2 := time.Now()
		if cfg.RegAlloc {
			regalloc.AllocateFunc(mf) //nolint:errcheck // the real compile succeeded
		}
		t3 := time.Now()
		if cfg.Sched {
			sched.ScheduleFunc(mf)
		}
		t4 := time.Now()
		stage[0] += t1.Sub(t)
		stage[1] += t2.Sub(t1)
		stage[2] += t3.Sub(t2)
		stage[3] += t4.Sub(t3)
	}
	sh.pipelines++
	sh.backends += int64(m.FuncsCompiled)
	parent := sh.rec.spans[pipeSpan]
	at := parent.Start
	place := func(name string, d time.Duration) {
		end := min(at+int64(d), parent.End)
		sh.rec.add(name, at, end, parent.ID)
		at = end
	}
	place("front", front)
	place("funccache.key", keys)
	for i, n := range []string{"opt", "lower", "regalloc", "sched"} {
		place(n, time.Duration(float64(stage[i])*scale))
	}
}
