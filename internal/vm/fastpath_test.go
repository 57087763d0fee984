package vm

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/mach"
	"repro/internal/opt"
)

const loopProg = `
int helper(int v) {
	return v * 2;
}
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 100; i++) {
		s = s + helper(i);
		print(s);
	}
	return s;
}
`

// TestPredecodeShared verifies the predecoded form is built once per
// program and shared across VMs.
func TestPredecodeShared(t *testing.T) {
	_, v1 := compile(t, loopProg, opt.O2())
	v2, err := New(v1.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if v1.pcode != v2.pcode {
		t.Error("two VMs over one program should share the predecoded form")
	}
	if len(v1.pcode.funcs) != len(v1.Prog.Funcs) {
		t.Errorf("predecoded %d funcs, program has %d", len(v1.pcode.funcs), len(v1.Prog.Funcs))
	}
}

// TestPredecodeLayout checks every (block, idx) position round-trips
// through the flat layout, including the implicit-return sentinel slot
// of fall-off blocks.
func TestPredecodeLayout(t *testing.T) {
	_, v := compile(t, loopProg, opt.O2())
	for i, fn := range v.Prog.Funcs {
		fc := v.pcode.fn(int32(i))
		seen := 0
		for _, b := range fn.Blocks {
			n := len(b.Instrs)
			for idx := 0; idx < n; idx++ {
				pc, ok := fc.pcOf(b, idx)
				if !ok {
					t.Fatalf("%s: pcOf(%v, %d) failed", fn.Name, b, idx)
				}
				if fc.blocks[pc] != b || int(fc.idxs[pc]) != idx {
					t.Fatalf("%s: pc %d maps back to wrong position", fn.Name, pc)
				}
				if fc.code[pc].in != b.Instrs[idx] {
					t.Fatalf("%s: pc %d holds wrong instruction", fn.Name, pc)
				}
				seen++
			}
			if b.Term() == nil {
				pc, ok := fc.pcOf(b, n)
				if !ok {
					t.Fatalf("%s: fall-off block has no sentinel slot", fn.Name)
				}
				d := fc.code[pc]
				if d.in != nil || d.op != mach.RET {
					t.Fatalf("%s: sentinel slot is %+v, want implicit RET", fn.Name, d)
				}
				seen++
			}
		}
		if seen != len(fc.code) {
			t.Errorf("%s: layout has %d slots, walked %d", fn.Name, len(fc.code), seen)
		}
	}
}

// TestBreakSetAdd exercises Add's validation: real positions arm, alien
// blocks and out-of-range indices are programming errors and panic.
func TestBreakSetAdd(t *testing.T) {
	_, v := compile(t, loopProg, opt.O2())
	main := v.Prog.LookupFunc("main")
	helper := v.Prog.LookupFunc("helper")
	bs := v.NewBreakSet()
	bs.Add(main, main.Entry, 0)
	mustPanic := func(what string, add func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Add %s should panic", what)
			}
		}()
		add()
	}
	mustPanic("with a block from another function", func() { bs.Add(main, helper.Entry, 0) })
	mustPanic("past the end of a block", func() { bs.Add(main, main.Entry, 10_000) })
	mustPanic("before the start of a block", func() { bs.Add(main, main.Entry, -1) })
	if bs.maskOf(main) == nil {
		t.Error("armed function should have a mask")
	}
	if bs.maskOf(helper) != nil {
		t.Error("unarmed function should have a nil mask outside step mode")
	}
}

// TestRunBreaksWrongProgram: a BreakSet compiled for one program must be
// rejected by a VM over another.
func TestRunBreaksWrongProgram(t *testing.T) {
	_, v1 := compile(t, loopProg, opt.O2())
	_, v2 := compile(t, loopProg, opt.O0())
	bs := v1.NewBreakSet()
	if err := v2.RunBreaks(bs, false); err == nil {
		t.Fatal("RunBreaks accepted a BreakSet for a different program")
	}
}

// TestRunBreaksStepBudget: the fused counter must reproduce the exact
// legacy budget semantics — same error, same final Steps value as the
// reference path.
func TestRunBreaksStepBudget(t *testing.T) {
	_, vFull := compile(t, loopProg, opt.O2())
	if err := vFull.Run(); err != nil {
		t.Fatal(err)
	}
	total := vFull.Steps
	for _, budget := range []int64{1, 7, 100, 1023, 1024, 1025, total - 1} {
		_, vFast := compile(t, loopProg, opt.O2())
		vFast.MaxSteps = budget
		errFast := vFast.RunBreaks(vFast.NewBreakSet(), false)

		_, vRef := compile(t, loopProg, opt.O2())
		vRef.MaxSteps = budget
		errRef := runUntil(vRef, never)

		if !errors.Is(errFast, ErrStepLimit) || !errors.Is(errRef, ErrStepLimit) {
			t.Fatalf("budget %d: fast=%v ref=%v, want ErrStepLimit from both", budget, errFast, errRef)
		}
		if vFast.Steps != vRef.Steps {
			t.Errorf("budget %d: Steps fast=%d ref=%d", budget, vFast.Steps, vRef.Steps)
		}
		if vFast.Cycles != vRef.Cycles {
			t.Errorf("budget %d: Cycles fast=%d ref=%d", budget, vFast.Cycles, vRef.Cycles)
		}
	}
}

// TestRunBreaksDeadline: an already-expired deadline must stop the fast
// path with ErrDeadline (checked at the quantum boundary).
func TestRunBreaksDeadline(t *testing.T) {
	_, v := compile(t, loopProg, opt.O2())
	v.SetDeadline(time.Now().Add(-time.Second))
	err := v.RunBreaks(v.NewBreakSet(), false)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("RunBreaks with expired deadline = %v, want ErrDeadline", err)
	}
}

// TestDeadlineTinyProgram: a program far shorter than checkQuantum steps
// must still honor an already-expired deadline, on both engines, without
// executing a single instruction. Before the entry-point check landed,
// the deadline was only consulted at checkQuantum-aligned step counts,
// so a request admitted after its deadline (queueing delay under soak
// load) ran tiny workloads to completion instead of failing fast —
// exactly the stall the oracle soak's short randprog corpus provokes.
func TestDeadlineTinyProgram(t *testing.T) {
	const tinyProg = `int main() { int a = 3; return a + 4; }`

	_, vFast := compile(t, tinyProg, opt.O2())
	vFast.SetDeadline(time.Now().Add(-time.Second))
	errFast := vFast.RunBreaks(vFast.NewBreakSet(), false)
	if !errors.Is(errFast, ErrDeadline) {
		t.Fatalf("fast path: %v, want ErrDeadline", errFast)
	}
	if vFast.Steps != 0 {
		t.Errorf("fast path executed %d steps past an expired deadline", vFast.Steps)
	}

	_, vRef := compile(t, tinyProg, opt.O2())
	vRef.SetDeadline(time.Now().Add(-time.Second))
	errRef := runUntil(vRef, never)
	if !errors.Is(errRef, ErrDeadline) {
		t.Fatalf("ref path: %v, want ErrDeadline", errRef)
	}
	if vRef.Steps != vFast.Steps {
		t.Errorf("Steps at expired deadline: fast %d ref %d", vFast.Steps, vRef.Steps)
	}

	// Clearing the deadline lets the same VM resume and finish: the cutoff
	// must leave it consistent at the instruction boundary.
	vFast.SetDeadline(time.Time{})
	if err := vFast.RunBreaks(vFast.NewBreakSet(), false); err != nil {
		t.Fatalf("resume after cleared deadline: %v", err)
	}
	if !vFast.Halted() {
		t.Error("program should have finished after the deadline was cleared")
	}
}

// TestOutputLimit: printing past MaxOutput fails with ErrOutputLimit,
// deterministically, retaining everything printed before the limit; the
// reference path trips identically.
func TestOutputLimit(t *testing.T) {
	_, vFast := compile(t, loopProg, opt.O2())
	vFast.MaxOutput = 64
	errFast := vFast.RunBreaks(vFast.NewBreakSet(), false)
	if !errors.Is(errFast, ErrOutputLimit) {
		t.Fatalf("fast path: %v, want ErrOutputLimit", errFast)
	}
	if len(vFast.Output()) > 64 {
		t.Errorf("retained output %d bytes, cap is 64", len(vFast.Output()))
	}

	_, vRef := compile(t, loopProg, opt.O2())
	vRef.MaxOutput = 64
	errRef := runUntil(vRef, never)
	if !errors.Is(errRef, ErrOutputLimit) {
		t.Fatalf("ref path: %v, want ErrOutputLimit", errRef)
	}
	if vFast.Output() != vRef.Output() {
		t.Errorf("retained output differs: fast %q ref %q", vFast.Output(), vRef.Output())
	}
	if vFast.Steps != vRef.Steps {
		t.Errorf("Steps at limit: fast %d ref %d", vFast.Steps, vRef.Steps)
	}
	if !strings.Contains(errFast.Error(), "stmt") {
		t.Errorf("error should name the statement: %v", errFast)
	}
}

// TestOutputUnlimited: a negative MaxOutput disables the cap.
func TestOutputUnlimited(t *testing.T) {
	_, v := compile(t, loopProg, opt.O2())
	v.MaxOutput = -1
	if err := v.Run(); err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	if len(v.Output()) == 0 {
		t.Fatal("program should have printed")
	}
}

// TestStepBreakSetRule: the compiled step rule stops at statement
// boundaries of other statements/functions but never at instructions of
// the starting statement in the starting function.
func TestStepBreakSetRule(t *testing.T) {
	_, v := compile(t, loopProg, opt.O2())
	main := v.Prog.LookupFunc("main")
	helper := v.Prog.LookupFunc("helper")
	bs := v.StepBreakSet(main, 1)
	mMain := bs.maskOf(main)
	if mMain == nil {
		t.Fatal("step set should carry a mask for the starting function")
	}
	fc, _ := v.pcode.of(main)
	for pc, d := range fc.code {
		set := mMain[pc>>6]&(1<<(uint(pc)&63)) != 0
		if d.in == nil {
			if set {
				t.Errorf("sentinel pc %d should not be a stop", pc)
			}
			continue
		}
		wantSet := d.in.Stmt >= 0 && d.in.Stmt != 1
		if set != wantSet {
			t.Errorf("pc %d (stmt %d): stop bit %v, want %v", pc, d.in.Stmt, set, wantSet)
		}
	}
	// Step mode: other functions stop at every statement boundary.
	mh := bs.maskOf(helper)
	if mh == nil {
		t.Fatal("step mode should give other functions their stmt mask")
	}
	hc, _ := v.pcode.of(helper)
	for pc, d := range hc.code {
		set := mh[pc>>6]&(1<<(uint(pc)&63)) != 0
		wantSet := d.in != nil && d.in.Stmt >= 0
		if set != wantSet {
			t.Errorf("helper pc %d: stop bit %v, want %v", pc, set, wantSet)
		}
	}
}
