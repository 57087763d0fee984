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
	Peel       bool
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
func RunFunc(f *ir.Func, o Options) {
	// SROA must run first: it rewrites aggregate memory traffic into the
	// member-variable assignments every scalar pass below understands.
	if o.SROA {
		SROA(f)
	}

	cleanup := func() {
		if o.ConstFold {
			ConstFold(f)
		}
		if o.ConstProp {
			ConstProp(f)
		}
		if o.BranchOpt {
			BranchOpt(f)
		}
	}

	cleanup()
	if o.LoopInvert {
		LoopInvert(f)
		cleanup()
	}
	if o.Unroll {
		Unroll(f)
		cleanup()
	}
	if o.Peel {
		Peel(f)
		cleanup()
	}

	for round := 0; round < 3; round++ {
		if o.AssignProp {
			AssignProp(f)
		}
		if o.CopyProp {
			CopyProp(f)
		}
		if o.ConstProp {
			ConstProp(f)
		}
		if o.ConstFold {
			ConstFold(f)
		}
		if o.PRE {
			PRE(f)
		}
		if o.CopyProp {
			CopyProp(f)
		}
		if o.LICM {
			LICM(f)
		}
		if o.Strength {
			StrengthReduce(f)
			if o.CopyProp {
				CopyProp(f)
			}
		}
		if o.PDCE {
			PDCE(f)
		}
		if o.DCE {
			DCE(f)
			FaintDCE(f)
		}
		if o.BranchOpt {
			BranchOpt(f)
		}
	}
	cleanup()
	if o.DCE {
		DCE(f)
		FaintDCE(f)
	}

	if o.NoMarkers {
		stripMarkers(f)
	}
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
