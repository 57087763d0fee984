package core

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/mach"
)

// TestSchedulingEndangerment exercises the companion analysis of
// [Adl-Tabatabai & Gross, PLDI '93]: the list scheduler moves a
// long-latency assignment above an earlier statement's breakpoint, making
// the later variable prematurely current at that breakpoint.
func TestSchedulingEndangerment(t *testing.T) {
	// y's multiply has a longer critical path than x's add, so the
	// scheduler lifts it; at x's breakpoint y has then already executed.
	src := `
int f(int a, int b, int c, int d) {
	int x = a + b;
	int y = c * d;
	return x + y;
}
int main() { return f(1, 2, 3, 4); }
`
	// Compile without the scalar optimizer (which would eliminate x and y
	// entirely) but with allocation and scheduling, isolating the
	// reordering effect.
	cfg := compile.Config{RegAlloc: true, Sched: true}
	res, err := compile.Compile("sched.mc", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Mach.LookupFunc("f")
	if !f.Scheduled {
		t.Fatal("function not scheduled")
	}

	// Verify the reorder actually happened (y's def before x's def).
	var xi, yi = -1, -1
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if f.ObjName(in.DefObj) == "x" {
				xi = i
			}
			if f.ObjName(in.DefObj) == "y" {
				yi = i
			}
		}
	}
	if xi < 0 || yi < 0 {
		t.Skipf("variables optimized away entirely; scheduling check not applicable\n%s", f)
	}
	if yi > xi {
		t.Skipf("scheduler kept source order (y at %d, x at %d); nothing to detect", yi, xi)
	}

	a := Analyze(f)
	var y *mach.Instr
	_ = y
	var yObj = f.Decl.Locals[5] // a,b,c,d,x,y
	if yObj.Name != "y" {
		for _, v := range f.Decl.Locals {
			if v.Name == "y" {
				yObj = v
			}
		}
	}
	c, ok := a.ClassifyAt(0, yObj) // breakpoint at "x = a + b"
	if !ok {
		t.Fatal("stmt 0 has no location")
	}
	if c.State != Noncurrent || c.Cause != ByScheduling {
		t.Errorf("y at x's breakpoint should be noncurrent by scheduling, got %s/%s (%s)\n%s",
			c.State, c.Cause, c.Why, f)
	}
}

// TestNoSchedulingFalsePositives: without the scheduler, the check must
// never fire.
func TestNoSchedulingFalsePositives(t *testing.T) {
	src := `
int f(int a, int b, int c, int d) {
	int x = a + b;
	int y = c * d;
	return x + y;
}
int main() { return f(1, 2, 3, 4); }
`
	cfg := compile.O2()
	cfg.Sched = false
	res, err := compile.Compile("sched.mc", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Mach.LookupFunc("f")
	a := Analyze(f)
	for s := 0; s < f.Decl.NumStmts; s++ {
		cs, ok := a.ClassifyAllAt(s)
		if !ok {
			continue
		}
		for _, c := range cs {
			if c.Cause == ByScheduling {
				t.Errorf("scheduling endangerment reported without scheduling: %s at stmt %d", c.Var.Name, s)
			}
		}
	}
}
