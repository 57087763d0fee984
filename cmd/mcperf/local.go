package main

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/server"
	"repro/pkg/minic"
)

// library compiles each workload artifact in-process once and shares it:
// the candidate profiles and every reference session use the same
// pkg/minic artifacts. It is safe for concurrent use.
type library struct {
	mu   sync.Mutex
	arts map[string]*libArt
	outs map[string]*libOut
}

type libArt struct {
	once sync.Once
	a    *minic.Artifact
	err  error

	profMu sync.Mutex
	profs  map[[2]int64][]stmtProf // by (maxSteps, maxHits)
}

type libOut struct {
	once sync.Once
	out  string
	err  error
}

func newLibrary() *library {
	return &library{arts: map[string]*libArt{}, outs: map[string]*libOut{}}
}

// artifactID is the daemon's content-addressed id for a.
func artifactID(a artSpec) string {
	return compile.KeyOf(a.Name, a.Src, minic.ResolveConfig(a.options()...)).ID()
}

// entry returns a's library entry, compiling the artifact on first use.
func (l *library) entry(a artSpec) *libArt {
	id := artifactID(a)
	l.mu.Lock()
	e, ok := l.arts[id]
	if !ok {
		e = &libArt{}
		l.arts[id] = e
	}
	l.mu.Unlock()
	e.once.Do(func() {
		opts := append(a.options(), minic.WithPrecomputedAnalyses(1))
		e.a, e.err = minic.Compile(a.Name, a.Src, opts...)
	})
	return e
}

// get returns the in-process artifact for a.
func (l *library) get(a artSpec) (*minic.Artifact, error) {
	e := l.entry(a)
	return e.a, e.err
}

// profile returns a's statement profile (see profile), computed once per
// artifact and setting.
func (l *library) profile(a artSpec, maxSteps int64, maxHits int) ([]stmtProf, error) {
	e := l.entry(a)
	if e.err != nil {
		return nil, e.err
	}
	e.profMu.Lock()
	defer e.profMu.Unlock()
	k := [2]int64{maxSteps, int64(maxHits)}
	if ps, ok := e.profs[k]; ok {
		return ps, nil
	}
	ps, err := profile(e.a, maxSteps, maxHits)
	if err != nil {
		return nil, err
	}
	if e.profs == nil {
		e.profs = map[[2]int64][]stmtProf{}
	}
	e.profs[k] = ps
	return ps, nil
}

// interpOutput is the program's output under the IR interpreter on its
// unoptimized IR: an independent reference for what a run to exit prints.
func (l *library) interpOutput(name, src string) (string, error) {
	l.mu.Lock()
	e, ok := l.outs[src]
	if !ok {
		e = &libOut{}
		l.outs[src] = e
	}
	l.mu.Unlock()
	e.once.Do(func() {
		res, err := compile.Compile(name, src, compile.O0())
		if err != nil {
			e.err = err
			return
		}
		_, e.out, e.err = ir.NewInterp(res.IR).Run()
	})
	return e.out, e.err
}

// local is the in-process reference backend: the same commands through
// pkg/minic sessions, answered in the wire shapes the daemon uses. One
// local serves one goroutine.
type local struct {
	lib      *library
	sessions map[string]*minic.Session
	byID     map[string]*minic.Artifact
	lineage  map[string]*minic.Artifact // compile workload: last version by name
	next     int
}

func newLocal(lib *library) *local {
	return &local{lib: lib, sessions: map[string]*minic.Session{},
		byID: map[string]*minic.Artifact{}, lineage: map[string]*minic.Artifact{}}
}

// reset forgets the previous unit's artifacts and sessions.
func (l *local) reset() {
	clear(l.sessions)
	clear(l.byID)
	clear(l.lineage)
}

func (l *local) compile(a artSpec) (compiled, error) {
	var art *minic.Artifact
	var err error
	if !a.Fresh {
		art, err = l.lib.get(a)
	} else if prev, ok := l.lineage[a.Name]; ok {
		art, err = prev.Recompile(a.Src)
	} else {
		art, err = minic.Compile(a.Name, a.Src, a.options()...)
	}
	if err != nil {
		return compiled{}, err
	}
	if a.Fresh {
		l.lineage[a.Name] = art
	}
	id := artifactID(a)
	l.byID[id] = art
	return compiled{ID: id, Funcs: len(art.Funcs()), FuncsCompiled: art.CompileStats().FuncsCompiled}, nil
}

func (l *local) artifactFor(id string) (*minic.Artifact, error) {
	if a := l.byID[id]; a != nil {
		return a, nil
	}
	return nil, fmt.Errorf("no artifact %q", id)
}

func (l *local) coverage(id string) (*server.CoverageInfo, error) {
	a, err := l.artifactFor(id)
	if err != nil {
		return nil, err
	}
	rep := a.Coverage()
	counts := func(c interface {
		Pcts() (string, string, string)
	}, pairs, cur, rec, non, sus, nonres, uninit int) server.CoverageCounts {
		p1, p2, p3 := c.Pcts()
		return server.CoverageCounts{Pairs: pairs, Current: cur, Recovered: rec, Noncurrent: non,
			Suspect: sus, Nonresident: nonres, Uninit: uninit, CurrentPct: p1, RecoveredPct: p2, NoncurrentPct: p3}
	}
	t := rep.Total
	ci := &server.CoverageInfo{CoverageCounts: counts(t, t.Pairs, t.Current, t.Recovered, t.Noncurrent, t.Suspect, t.Nonresident, t.Uninit)}
	for _, f := range rep.Funcs {
		c := f.Counts
		ci.Funcs = append(ci.Funcs, server.FuncCoverageInfo{Func: f.Func,
			CoverageCounts: counts(c, c.Pairs, c.Current, c.Recovered, c.Noncurrent, c.Suspect, c.Nonresident, c.Uninit)})
	}
	return ci, nil
}

func (l *local) open(id string) (string, error) {
	a, err := l.artifactFor(id)
	if err != nil {
		return "", err
	}
	s, err := minic.NewSession(a)
	if err != nil {
		return "", err
	}
	l.next++
	sid := "L" + strconv.Itoa(l.next)
	l.sessions[sid] = s
	return sid, nil
}

func stopInfo(bp *minic.Breakpoint) *server.StopInfo {
	if bp == nil {
		return nil
	}
	return &server.StopInfo{Func: bp.Fn.Name, Stmt: bp.Stmt, Line: bp.Line}
}

func varInfo(r *minic.VarReport) server.VarInfo {
	v := server.VarInfo{Name: r.Name, State: r.Class.State.String(), Display: r.Display()}
	for _, f := range r.Fields {
		v.Fields = append(v.Fields, varInfo(f))
	}
	return v
}

func (l *local) brk(sess string, b brk) (*server.StopInfo, error) {
	bp, err := l.sessions[sess].BreakAtStmt(b.Fn, b.Stmt)
	if err != nil {
		return nil, err
	}
	return stopInfo(bp), nil
}

func (l *local) run(sess string, step bool) (*server.StopInfo, string, error) {
	s := l.sessions[sess]
	run := s.Continue
	if step {
		run = s.Step
	}
	bp, err := run()
	if err != nil {
		return nil, "", err
	}
	if bp == nil {
		return nil, s.Output(), nil
	}
	return stopInfo(bp), "", nil
}

func (l *local) info(sess string) ([]server.VarInfo, error) {
	rs, err := l.sessions[sess].Info()
	if err != nil {
		return nil, err
	}
	vs := make([]server.VarInfo, len(rs))
	for i, r := range rs {
		vs[i] = varInfo(r)
	}
	return vs, nil
}

func (l *local) print(sess, name string) (server.VarInfo, error) {
	r, err := l.sessions[sess].Print(name)
	if err != nil {
		return server.VarInfo{}, err
	}
	return varInfo(r), nil
}

func (l *local) close(sess string) (string, error) {
	s := l.sessions[sess]
	delete(l.sessions, sess)
	return s.Output(), nil
}
