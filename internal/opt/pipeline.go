package opt

import (
	"repro/internal/ir"
)

// Options selects which optimizations run; the zero value disables all.
// Level O2 matches the paper's "global optimizations" configuration.
type Options struct {
	// SROA splits non-address-taken struct aggregates into per-field
	// scalar variables before the scalar pipeline runs (see sroa.go).
	SROA       bool
	ConstFold  bool
	ConstProp  bool
	CopyProp   bool
	AssignProp bool
	PRE        bool
	LICM       bool
	PDCE       bool
	DCE        bool
	Strength   bool
	Unroll     bool
	LoopInvert bool
	BranchOpt  bool
	// NoMarkers suppresses the §3 marker bookkeeping (ablation: shows what
	// the debugger loses without compiler support). Markers are emitted by
	// DCE/PRE; with NoMarkers they are stripped after the pipeline.
	NoMarkers bool
}

// O0 returns options with every optimization disabled.
func O0() Options { return Options{} }

// O1 returns local optimizations only (folding, propagation, DCE).
func O1() Options {
	return Options{ConstFold: true, ConstProp: true, CopyProp: true, DCE: true, BranchOpt: true}
}

// O2 returns the full global pipeline of Table 1 (minus machine-level
// passes, which run after lowering).
func O2() Options {
	return Options{
		SROA:      true,
		ConstFold: true, ConstProp: true, CopyProp: true, AssignProp: true,
		PRE: true, LICM: true, PDCE: true, DCE: true, Strength: true,
		Unroll: true, LoopInvert: true, BranchOpt: true,
	}
}

// RunFunc runs the pipeline on one function. The pass order mirrors cmcc's
// pipeline as reconstructed from the paper: propagation feeds PRE, PRE's
// hoisted assignments can be sunk again by PDCE, and DCE performs the final
// cleanup (including induction variables orphaned by LFTR).
//
// RunFunc touches only f (and reads the shared, immutable global objects its
// operands reference), so distinct functions may be optimized concurrently.
func RunFunc(f *ir.Func, o Options) { runFunc(new(workspace), f, o) }

// runFunc runs the pipeline on f with every pass application working in
// ws's buffers.
func runFunc(ws *workspace, f *ir.Func, o Options) {
	for _, p := range schedule(o) {
		p.run(ws, f)
	}
	if o.NoMarkers {
		stripMarkers(f)
	}
}

// pass is one optimizer pass: run rewrites f with ws's buffers and
// reports whether f changed.
type pass struct {
	name string
	run  func(ws *workspace, f *ir.Func) bool
}

var (
	sroaPass       = pass{"SROA", func(_ *workspace, f *ir.Func) bool { return sroa(f) > 0 }}
	constFoldPass  = pass{"ConstFold", func(_ *workspace, f *ir.Func) bool { return constFold(f) }}
	constPropPass  = pass{"ConstProp", func(ws *workspace, f *ir.Func) bool { return propagateAvailableCopies(ws, f, true) }}
	copyPropPass   = pass{"CopyProp", func(ws *workspace, f *ir.Func) bool { return propagateAvailableCopies(ws, f, false) }}
	branchOptPass  = pass{"BranchOpt", branchOpt}
	loopInvertPass = pass{"LoopInvert", loopInvert}
	unrollPass     = pass{"Unroll", unroll}
	assignPropPass = pass{"AssignProp", assignProp}
	prePass        = pass{"PRE", pre}
	licmPass       = pass{"LICM", licm}
	strengthPass   = pass{"StrengthReduce", strengthReduce}
	pdcePass       = pass{"PDCE", pdce}
	dcePass        = pass{"DCE", dce}
	faintDCEPass   = pass{"FaintDCE", faintDCE}
)

// schedule lists the pass applications o selects, in pipeline order. It
// is a list rather than straight-line calls so that the tests can check
// each application (TestPassChangedResult) on exactly RunFunc's sequence.
func schedule(o Options) []pass {
	var s []pass
	add := func(on bool, ps ...pass) {
		if on {
			s = append(s, ps...)
		}
	}
	// SROA must run first: it rewrites aggregate memory traffic into the
	// member-variable assignments every scalar pass below understands.
	add(o.SROA, sroaPass)

	cleanup := func() {
		add(o.ConstFold, constFoldPass)
		add(o.ConstProp, constPropPass)
		add(o.BranchOpt, branchOptPass)
	}

	cleanup()
	if o.LoopInvert {
		add(true, loopInvertPass)
		cleanup()
	}
	if o.Unroll {
		add(true, unrollPass)
		cleanup()
	}

	for round := 0; round < 3; round++ {
		add(o.AssignProp, assignPropPass)
		add(o.CopyProp, copyPropPass)
		add(o.ConstProp, constPropPass)
		add(o.ConstFold, constFoldPass)
		add(o.PRE, prePass)
		add(o.CopyProp, copyPropPass)
		add(o.LICM, licmPass)
		if o.Strength {
			add(true, strengthPass)
			add(o.CopyProp, copyPropPass)
		}
		add(o.PDCE, pdcePass)
		add(o.DCE, dcePass, faintDCEPass)
		add(o.BranchOpt, branchOptPass)
	}
	cleanup()
	add(o.DCE, dcePass, faintDCEPass)
	return s
}

// stripMarkers removes all debugger markers (ablation mode).
func stripMarkers(f *ir.Func) {
	for _, b := range f.Blocks {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			if b.Instrs[i].IsMarker() {
				b.RemoveAt(i)
			}
		}
	}
}
