package core

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/debuginfo"
)

// tablesProg has a loop, a branch and an eliminated assignment, so its
// breakpoint tables contain nontrivial may/must pairs.
const tablesProg = `int f(int c, int a, int b) {
	int x = a * b;
	int s = 0;
	int i = 0;
	while (i < 10) {
		s = s + a;
		i = i + 1;
	}
	if (c) {
		s = x;
	}
	return s + a;
}
int main() { return f(1, 3, 4); }`

// TestSetsAtIdxPastEndOfBlock pins the guard for locations beyond the
// last instruction of a block: the old prefix walk clamped silently via
// its loop condition; the precomputed tables must clamp the same way, so
// an index past the end behaves exactly like the block's end and never
// reads out of bounds.
func TestSetsAtIdxPastEndOfBlock(t *testing.T) {
	for _, cfg := range []compile.Config{compile.O2NoRegAlloc(), compile.O2()} {
		a := analyzeCfg(t, tablesProg, cfg, "f")
		for s := 0; s < a.Table.NumStmts; s++ {
			loc, ok := a.Table.LocOf(s)
			if !ok {
				continue
			}
			end := debuginfo.Loc{Block: loc.Block, Idx: len(loc.Block.Instrs)}
			past := debuginfo.Loc{Block: loc.Block, Idx: len(loc.Block.Instrs) + 7}
			mayEnd, mustEnd := a.setsAt(end)
			mayPast, mustPast := a.setsAt(past)
			if !mayEnd.Equal(mayPast) || !mustEnd.Equal(mustPast) {
				t.Fatalf("stmt %d: sets at idx=len and idx=len+7 differ", s)
			}
			for _, id := range a.Table.VarsInScope(s) {
				v := a.Fn.Decl.Locals[id]
				ce := a.classify(end, v, mayEnd, mustEnd)
				cp := a.classify(past, v, mayPast, mustPast)
				// Scheduling detection legitimately reads the instruction
				// at the location, so compare the data-flow verdict only.
				if ce.State != cp.State || ce.Why != cp.Why {
					t.Fatalf("stmt %d %s: classification differs past end: %v/%q vs %v/%q",
						s, v.Name, ce.State, ce.Why, cp.State, cp.Why)
				}
			}
		}
	}
}

// TestBreakpointTablesMatchReplay checks that every precomputed
// per-breakpoint set pair equals the block-prefix replay it replaced:
// starting from the block's in-sets and applying the cached instruction
// effects up to the location.
func TestBreakpointTablesMatchReplay(t *testing.T) {
	for _, cfg := range []compile.Config{compile.O2NoRegAlloc(), compile.O2()} {
		a := analyzeCfg(t, tablesProg, cfg, "f")
		if len(a.bpSets) == 0 {
			t.Fatal("no precomputed breakpoint tables")
		}
		pairs := 0
		for bi, blk := range a.Fn.Blocks {
			for idx := 0; idx <= len(blk.Instrs); idx++ {
				p := a.bpSlot[int(a.start[bi])+bi+idx]
				if p < 0 {
					continue
				}
				pairs++
				in0, in1 := a.blockIn(bi)
				may, must := in0.Copy(), in1.Copy()
				for i := 0; i < idx; i++ {
					a.applyEffect(int(a.start[bi])+i, may, must)
				}
				if !may.Equal(&a.bpSets[2*p]) || !must.Equal(&a.bpSets[2*p+1]) {
					t.Fatalf("block %v idx %d: precomputed pair differs from replay", blk, idx)
				}
			}
		}
		if 2*pairs != len(a.bpSets) {
			t.Fatalf("%d slots name a pair, want %d", pairs, len(a.bpSets)/2)
		}
	}
}

// analyzeCfg compiles src with cfg and analyzes function fn.
func analyzeCfg(t *testing.T, src string, cfg compile.Config, fn string) *Analysis {
	t.Helper()
	res, err := compile.Compile("tables.mc", src, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	f := res.Mach.LookupFunc(fn)
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	return Analyze(f)
}
