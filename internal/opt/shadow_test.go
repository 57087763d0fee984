package opt_test

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/vm"
)

// TestRegressShadowedArrayAddr: a global array and a local array that
// shadows it can share both object ID and name, because globals and
// locals are numbered separately. Redundancy keys that named an address
// by ID and name made CSE reuse the local array's address for the
// global's, so the last print read the local x[1] (11 11 instead of 11 6).
// Keys now name the object itself.
func TestRegressShadowedArrayAddr(t *testing.T) {
	const src = `
int a; int b; int c; int x[4];
int f(int p) { int r; int s; x[1] = p;
  { int x[4]; x[1] = p * 2; r = x[1] + 1; print(r); print(" "); }
  s = x[1] + 1; print(s); return 0; }
int main() { f(5); return 0; }
`
	p, err := sem.CheckSource("shadow.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := ir.NewInterp(ir.Build(p)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if want != "11 6" {
		t.Fatalf("O0 interpreter printed %q, want %q", want, "11 6")
	}
	for name, cfg := range map[string]compile.Config{"O2": compile.O2(), "O2NoRegAlloc": compile.O2NoRegAlloc()} {
		res, err := compile.Compile("shadow.mc", src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := vm.New(res.Mach)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := m.Output(); got != want {
			t.Errorf("%s printed %q, want %q (the O0 interpreter's output)", name, got, want)
		}
	}
}
