package opt

import (
	"testing"

	"repro/internal/ir"
)

func TestLoopInvertRotates(t *testing.T) {
	src := `
int main() {
	int s = 0;
	int i = 0;
	while (i < 10) {
		s = s + i;
		i = i + 1;
	}
	print(s);
	return s;
}
`
	prog := buildIR(t, src)
	f := prog.LookupFunc("main")
	if !LoopInvert(f) {
		t.Fatalf("loop not inverted\n%s", f)
	}
	// After inversion the latch ends in a conditional branch (the
	// duplicated test), not a jump back to the header.
	condLatches := 0
	for _, b := range f.Blocks {
		if tm := b.Term(); tm != nil && tm.Kind == ir.Br {
			condLatches++
		}
	}
	if condLatches < 2 { // entry guard + rotated latch
		t.Errorf("expected the test duplicated into the latch\n%s", f)
	}
	// Semantics preserved.
	_, out := run(t, prog)
	if out != "45" {
		t.Errorf("output = %q", out)
	}
}

func TestLoopInvertDuplicatesMarkers(t *testing.T) {
	// A marker in the header block must be duplicated with the test
	// (§3 code duplication rule).
	src := `
int main() {
	int dead = 1;
	int i = 0;
	int s = 0;
	while (i < 5) {
		dead = i;    // dead: never used
		s = s + 2;
		i = i + 1;
	}
	print(s);
	return 0;
}
`
	prog := buildIR(t, src)
	f := prog.LookupFunc("main")
	DCE(f)
	before := countKind(prog, ir.MarkDead)
	LoopInvert(f)
	after := countKind(prog, ir.MarkDead)
	if after < before {
		t.Errorf("inversion lost markers: %d -> %d", before, after)
	}
	_, out := run(t, prog)
	if out != "10" {
		t.Errorf("output = %q", out)
	}
}

func TestLoopInvertDifferential(t *testing.T) {
	srcs := []string{progSum, progArrays, progFloat, progBranchy}
	for _, src := range srcs {
		differential(t, src, Options{LoopInvert: true})
		differential(t, src, Options{LoopInvert: true, Unroll: true, DCE: true, BranchOpt: true, ConstFold: true, ConstProp: true})
	}
}

func TestLoopInvertReducesBranches(t *testing.T) {
	src := `
int main() {
	int s = 0;
	int i;
	for (i = 0; i < 100; i++) { s += i; }
	print(s);
	return 0;
}
`
	base := buildIR(t, src)
	inv := buildIR(t, src)
	LoopInvert(inv.LookupFunc("main"))

	countJumps := func(p *ir.Program) int {
		n := 0
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				if tm := b.Term(); tm != nil && tm.Kind == ir.Jmp {
					n++
				}
			}
		}
		return n
	}
	// The rotated loop replaces the latch jump with a branch; total
	// static jumps should not increase.
	if countJumps(inv) > countJumps(base) {
		t.Errorf("inversion added jumps: %d -> %d", countJumps(base), countJumps(inv))
	}
	_, out := run(t, inv)
	if out != "4950" {
		t.Errorf("output = %q", out)
	}
}
