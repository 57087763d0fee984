package core

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/opt"
)

// TestLoopCarriedDeadReachIsSuspect: an assignment eliminated inside a loop
// dead-reaches along the back edge but not along the loop-entry path, so at
// a breakpoint early in the body the variable is suspect, not noncurrent.
func TestLoopCarriedDeadReachIsSuspect(t *testing.T) {
	src := `
int f(int n) {
	int last = -1;
	int s = 0;
	int i;
	for (i = 0; i < n; i++) {
		s = s + i;
		last = i * 2;     // dead except on the final iteration? no — dead
	}                     // entirely: overwritten each iteration, unused
	return s;
}
int main() { return f(4); }
`
	// 'last' is written in the loop but never read: DCE deletes the
	// assignment, leaving markers inside the loop.
	cfg := compile.Config{Opt: opt.Options{DCE: true}}
	a := analyze(t, src, cfg, "f")

	// Find 'last's classification at the loop body statement "s = s + i"
	// (stmt 5: 0 last, 1 s, 2 decl i, 3 for, 4 i=0, 5 body-s, 6 body-last, 7 i++).
	c := classOf(t, a, 5, "last")
	// On the first iteration the marker has not been crossed; on later
	// iterations it has: suspect.
	if c.State != Suspect && c.State != Current {
		// 'last = -1' at stmt 0 is also dead (never used) — if that
		// marker dominates, last is noncurrent everywhere. Accept either
		// precise outcome but never "uninitialized".
		if c.State != Noncurrent {
			t.Errorf("last in loop body: %s (%s)", c.State, c.Why)
		}
	}
	if c.State == Uninitialized {
		t.Error("markers must count as initialization")
	}
}

// TestSuspectBecomesNoncurrentAfterMarkerOnAllPaths: within one iteration,
// after the in-loop marker position the dead reach holds on every path.
func TestDeadReachWithinIteration(t *testing.T) {
	src := `
int f(int c, int a) {
	int x = a * 7;   // partially dead: only used in the branch
	int y = 0;
	if (c) {
		y = x;
	}
	y = y + a;
	return y;
}
int main() { return f(0, 3); }
`
	cfg := compile.Config{Opt: opt.Options{PDCE: true, DCE: true}}
	a := analyze(t, src, cfg, "f")
	// stmt 1 (y = 0) sits between the deleted assignment and the sunk
	// copy: noncurrent on every path.
	if c := classOf(t, a, 1, "x"); c.State != Noncurrent {
		t.Errorf("x between deletion and sunk copy: %s (%s)\n%s", c.State, c.Why, a.Fn)
	}
	// stmt 4 (y = y + a) is after the join: suspect.
	if c := classOf(t, a, 4, "x"); c.State != Suspect {
		t.Errorf("x after the join: %s (%s)", c.State, c.Why)
	}
}

// TestRecoveryInvalidatedByClobber: a recovery alias dies when its register
// is overwritten; the variable falls back to noncurrent with no recovery.
func TestRecoveryInvalidatedByNewElimination(t *testing.T) {
	// x=5 is eliminated (constant recovery); then x=y+1 is also
	// eliminated (alias recovery via marker operand). After the second
	// marker, the first (constant 5) recovery must NOT be offered.
	src := `
int main() {
	int y = 1;
	int x = 5;
	int a = 0;
	x = y + 1;
	int b = a + y;
	x = b * 3;
	print(x);
	return 0;
}
`
	cfg := compile.Config{Opt: opt.Options{DCE: true}}
	a := analyze(t, src, cfg, "main")
	// stmt 4 (int b = a + y) is after "x = y+1" was eliminated.
	c := classOf(t, a, 4, "x")
	if c.Recovered != nil && c.Recovered.Kind == RecoverConst && c.Recovered.C == 5 {
		t.Errorf("stale constant recovery offered after a newer elimination: %+v (%s)\n%s",
			c.Recovered, c.Why, a.Fn)
	}
}

// TestAddressedVariablesAlwaysCurrent: address-taken scalars and arrays
// live in memory and are untouched by the scalar optimizer.
func TestAddressedVariablesAlwaysCurrent(t *testing.T) {
	src := `
int main() {
	int x = 1;
	int *p = &x;
	int a[4];
	a[0] = *p;
	*p = 2;
	print(a[0], x);
	return 0;
}
`
	a := analyze(t, src, compile.O2(), "main")
	for s := 0; s < a.Fn.Decl.NumStmts; s++ {
		for _, id := range a.Table.VarsInScope(s) {
			v := a.Fn.Decl.Locals[id]
			if !v.Addressed {
				continue
			}
			c, ok := a.ClassifyAt(s, v)
			if !ok {
				continue
			}
			if c.State != Current {
				t.Errorf("addressed %s at stmt %d: %s", v.Name, s, c.State)
			}
		}
	}
}

// TestHoistReachKilledByRealDef: after a normal assignment to the variable,
// premature-update endangerment ends.
func TestHoistReachKilledByRealDef(t *testing.T) {
	src := `
int f(int c, int y, int z) {
	int x = 0;
	if (c) {
		x = y + z;
	} else {
		x = 1;
	}
	x = y + z;
	x = 99;
	return x;
}
int main() { return f(1, 2, 3); }
`
	cfg := compile.Config{Opt: opt.Options{PRE: true}}
	a := analyze(t, src, cfg, "f")
	// stmt 6 (return) is after x = 99: current regardless of hoisting.
	if c := classOf(t, a, 6, "x"); c.State != Current {
		t.Errorf("x after a real def: %s (%s)\n%s", c.State, c.Why, a.Fn)
	}
}
