package opt

import (
	"testing"

	"repro/internal/ir"
)

// Regression tests for miscompilations found by the randprog fuzzer.

// TestRegressAssignPropStaleClone (fuzzer seed 1759): assignment
// propagation used to re-materialize from the candidate's *current*
// instruction, which an earlier in-place use replacement could have
// rewritten (v6 -> chk), producing an expression over a variable whose
// value had moved on. Candidates must be snapshotted at collection time.
func TestRegressAssignPropStaleClone(t *testing.T) {
	src := `
int main() {
	int chk = 7;
	int buf[4];
	int z;
	for (z = 0; z < 4; z++) { buf[z] = z * 3; }
	int i5;
	for (i5 = 0; i5 < 4; i5++) {
		int v6 = chk;
		chk = v6 + buf[i5 % 4];
	}
	print("chk=", chk, "\n");
	return 0;
}`
	differential(t, src, Options{AssignProp: true, Unroll: true})
	differential(t, src, O2())
}

// TestRegressPDCESelfReference (fuzzer seed 4216): partial dead code
// elimination used to sink self-referencing assignments (v5 = v5 - t);
// the sunk copy reads the destination, so the original never went dead and
// every PDCE round stacked another copy, multiplying the update's effect.
func TestRegressPDCESelfReference(t *testing.T) {
	src := `
int G1 = 22;
int main() {
	int chk = 7;
	int v4 = ((-14 + 16) % (((chk % ((chk % 7 + 7) % 7 + 1)) % 7 + 7) % 7 + 1));
	int v5 = (chk - v4);
	v5 -= (G1 - v5);
	chk = (chk * 31 + v4) % 65521;
	int v6 = ((52 % ((chk % 7 + 7) % 7 + 1)) / ((-9 % 9 + 9) % 9 + 1));
	if ((v6 + chk) != 52) {
		G1 = ((v5 % ((-16 % 7 + 7) % 7 + 1)) - (v6 / ((v6 % 9 + 9) % 9 + 1)));
	} else {
		chk = (chk * 31 + G1) % 65521;
	}
	chk = (chk * 31 + v4) % 65521;
	chk = (chk * 13 + G1) % 65521;
	print("chk=", chk, "\n");
	return 0;
}`
	differential(t, src, Options{AssignProp: true, PDCE: true})
	differential(t, src, O2())
}

// TestPDCENeverSinksSelfRef asserts the structural property directly.
func TestPDCENeverSinksSelfRef(t *testing.T) {
	src := `
int f(int c, int a) {
	int x = a + 1;
	x = x * 2;       // self-referencing: must never be sunk
	int r = 0;
	if (c) { r = x; }
	return r;
}
int main() { return f(1, 3); }
`
	prog := buildIR(t, src)
	runFuncs(prog, Options{PDCE: true, DCE: true})
	f := prog.LookupFunc("f")
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !in.Ann.Sunk {
				continue
			}
			var buf []ir.Operand
			for _, u := range in.Uses(buf) {
				if in.HasDst() && u.Same(in.Dst) {
					t.Errorf("self-referencing assignment was sunk: %s", in)
				}
			}
		}
	}
	differential(t, src, Options{PDCE: true, DCE: true})
}
