package vm

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"unsafe"

	mcc "repro/internal/compile"
	"repro/internal/mach"
	"repro/internal/opt"
)

// workloads returns the eight corpus workloads' names and sources.
func workloads(t *testing.T) (names, srcs []string) {
	t.Helper()
	files, err := filepath.Glob("../bench/testdata/*.mc")
	if err != nil || len(files) != 8 {
		t.Fatalf("want the 8 corpus workloads, got %d (%v)", len(files), err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		names, srcs = append(names, filepath.Base(f)), append(srcs, string(src))
	}
	return names, srcs
}

func mustCompile(t *testing.T, name, src string, cfg mcc.Config) *mcc.Result {
	t.Helper()
	r, err := mcc.Compile(name, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// drainMemPool empties memPool, so the next New allocates fresh memory.
func drainMemPool() {
	for i := range memPool {
		for memPool[i].Get() != nil {
		}
	}
}

// runRecord is what a run to exit leaves: memory, counters and output,
// and the memory segment New handed the VM.
type runRecord struct {
	start, end    []int64
	steps, cycles int64
	exit          int64
	out           string
	err           error
	seg           *int64
}

func runToExit(t *testing.T, prog *mach.Program) (*VM, runRecord) {
	t.Helper()
	v, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	rec := runRecord{start: slices.Clone(v.mem), seg: unsafe.SliceData(v.mem)}
	rec.err = v.Run()
	rec.end = slices.Clone(v.mem)
	rec.steps, rec.cycles, rec.exit, rec.out = v.Steps, v.Cycles, v.ExitValue(), v.Output()
	return v, rec
}

// TestRecycledMemoryMatchesFresh: a VM whose memory a released VM handed
// back is exactly a fresh VM. Each workload runs to exit at O0 and O2 once
// on fresh memory (the pool drained), then again, in the same order, on
// memory that every earlier run dirtied and released: the memory right
// after New, the memory at exit, Steps, Cycles, exit value and output must
// all match. Globals must read as cleared and initialized, and the stack
// must grow into zeroed words, whatever the segment held before.
func TestRecycledMemoryMatchesFresh(t *testing.T) {
	type run struct {
		name string
		prog *mach.Program
	}
	var runs []run
	names, srcs := workloads(t)
	for i, name := range names {
		for _, cfg := range []mcc.Config{mcc.O0(), mcc.O2()} {
			runs = append(runs, run{name, mustCompile(t, name, srcs[i], cfg).Mach})
		}
	}
	fresh := make([]runRecord, len(runs))
	released := map[*int64]bool{}
	for i, r := range runs {
		drainMemPool()
		v, rec := runToExit(t, r.prog)
		fresh[i] = rec
		released[unsafe.SliceData(v.mem)] = true
		v.Release()
	}
	reused := 0
	for i, r := range runs {
		v, got := runToExit(t, r.prog)
		if released[got.seg] {
			reused++
		}
		want := fresh[i]
		switch {
		case !slices.Equal(got.start, want.start):
			t.Errorf("%s: memory after New differs from a fresh VM's", r.name)
		case !slices.Equal(got.end, want.end):
			t.Errorf("%s: memory at exit differs from a fresh VM's", r.name)
		case got.steps != want.steps || got.cycles != want.cycles || got.exit != want.exit ||
			got.out != want.out || (got.err == nil) != (want.err == nil):
			t.Errorf("%s: steps %d cycles %d exit %d err %v, fresh %d %d %d %v (outputs equal: %v)", r.name,
				got.steps, got.cycles, got.exit, got.err, want.steps, want.cycles, want.exit, want.err, got.out == want.out)
		}
		released[unsafe.SliceData(v.mem)] = true
		v.Release()
	}
	// sync.Pool may drop what it holds (it does at random under -race),
	// but not everything.
	if reused == 0 {
		t.Errorf("no New over %d runs reused released memory", len(runs))
	}
	t.Logf("%d of %d New calls reused released memory", reused, len(runs))
}

// TestReleasedVMFailsClosed: after Release every entry point that reads
// or runs the VM's memory returns ErrReleased, also once another VM has
// taken the memory over; Release is idempotent; the counters, position
// and output stay readable.
func TestReleasedVMFailsClosed(t *testing.T) {
	_, v := compile(t, loopProg, opt.O2())
	main := v.Prog.LookupFunc("main")
	bs := v.StepBreakSet(main, -1)
	if err := v.RunBreaks(bs, false); err != nil {
		t.Fatal(err)
	}
	steps, cycles, pos, out := v.Steps, v.Cycles, v.Position(), v.Output()
	v.Release()
	v.Release()
	for round := range 2 {
		for name, err := range map[string]error{
			"Step":      v.Step(),
			"Run":       v.Run(),
			"RunBreaks": v.RunBreaks(bs, true),
			"ReadMemInt": func() error {
				_, err := v.ReadMemInt(0)
				return err
			}(),
			"ReadMemFloat": func() error {
				_, err := v.ReadMemFloat(0)
				return err
			}(),
		} {
			if !errors.Is(err, ErrReleased) {
				t.Errorf("round %d: %s on a released VM: %v, want ErrReleased", round, name, err)
			}
		}
		if v.Steps != steps || v.Cycles != cycles || v.Position() != pos || v.Output() != out {
			t.Errorf("round %d: a released VM's counters, position or output moved", round)
		}
		// Another session takes the memory over and writes it.
		w, err := New(v.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPredecodeOnFirstEntry: New flattens main alone; a function is
// flattened when first called, and BreakSet.Add flattens the function it
// arms.
func TestPredecodeOnFirstEntry(t *testing.T) {
	v, err := New(mustCompile(t, "loop.mc", loopProg, mcc.O2()).Mach)
	if err != nil {
		t.Fatal(err)
	}
	flat := func() (names []string) {
		for i, f := range v.Prog.Funcs {
			if v.pcode.funcs[i].Load() != nil {
				names = append(names, f.Name)
			}
		}
		return names
	}
	if got := flat(); !slices.Equal(got, []string{"main"}) {
		t.Fatalf("after New: flattened %v, want [main]", got)
	}
	helper := v.Prog.LookupFunc("helper")
	bs := v.NewBreakSet()
	bs.Add(helper, helper.Entry, 0)
	if got := flat(); len(got) != 2 {
		t.Fatalf("after BreakSet.Add in helper: flattened %v, want both", got)
	}

	v2, err := New(mustCompile(t, "loop.mc", loopProg, mcc.O2()).Mach)
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range v2.pcode.funcs {
		if v2.pcode.funcs[i].Load() == nil {
			t.Errorf("%s was called but never flattened", v2.Prog.Funcs[i].Name)
		}
	}
}

// TestConcurrentFirstEntry runs many VMs at once over each workload's
// freshly compiled program, so they flatten its functions concurrently as
// they enter them; some also step through the first statements, which
// flattens through StepBreakSet. Every run must match a serial run of the
// same program, and every function ends with one shared predecoded form.
// Run it under -race.
func TestConcurrentFirstEntry(t *testing.T) {
	const workers = 6
	names, srcs := workloads(t)
	for i, name := range names {
		_, want := runToExit(t, mustCompile(t, name, srcs[i], mcc.O2()).Mach)

		prog := mustCompile(t, name, srcs[i], mcc.O2()).Mach
		got := make([]runRecord, workers)
		vms := make([]*VM, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := New(prog)
				if err != nil {
					got[w].err = err
					return
				}
				if w%2 == 1 {
					// Step a few statements first: each step compiles a
					// step set for the function it is in.
					for range 5 + w {
						stmt := -1
						if in := v.CurrentInstr(); in != nil {
							stmt = int(in.Stmt)
						}
						if err := v.RunBreaks(v.StepBreakSet(v.Position().Fn, stmt), true); err != nil || v.Halted() {
							break
						}
					}
				}
				err = v.Run()
				got[w] = runRecord{steps: v.Steps, cycles: v.Cycles, exit: v.ExitValue(), out: v.Output(), err: err}
				vms[w] = v
			}()
		}
		wg.Wait()
		for w, g := range got {
			if g.err != nil || want.err != nil {
				t.Fatalf("%s worker %d: %v (serial %v)", name, w, g.err, want.err)
			}
			if g.steps != want.steps || g.cycles != want.cycles || g.exit != want.exit || g.out != want.out {
				t.Errorf("%s worker %d: steps %d cycles %d exit %d, serial %d %d %d (outputs equal: %v)",
					name, w, g.steps, g.cycles, g.exit, want.steps, want.cycles, want.exit, g.out == want.out)
			}
			if vms[w].pcode != vms[0].pcode {
				t.Errorf("%s worker %d: a second predecoded form of one program", name, w)
			}
		}
	}
}

// TestMemoryWordRoundTrip: every store/load pair returns what it stored.
// SW wraps an int to 32 bits and LW reads it back sign-extended; SWFP
// keeps all 64 bits; FSW/FLW and FSWFP/FLWFP keep a float's bits, -0.0
// and NaN payloads included. Loading a word as the other type reads the
// stored bits reinterpreted, which only a read of uninitialized memory
// can see.
func TestMemoryWordRoundTrip(t *testing.T) {
	const base = 4 // main's frame starts at the first word past the empty globals
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	signaling := math.Float64frombits(0x7ff0_0000_0000_0001)
	negZero := math.Copysign(0, -1)
	prog := func(instrs ...*mach.Instr) *mach.Program {
		b := &mach.Block{Instrs: append([]*mach.Instr{{Op: mach.MOV, Dst: mach.R_(0), A: mach.I_(base)}}, instrs...)}
		b.Instrs = append(b.Instrs, &mach.Instr{Op: mach.RET, A: mach.I_(0)})
		f := &mach.Func{Name: "main", Blocks: []*mach.Block{b}, Entry: b, NumVregs: 4, FrameSize: 16}
		return &mach.Program{Funcs: []*mach.Func{f}}
	}
	run := func(p *mach.Program) *VM {
		t.Helper()
		v, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if v.Top().Base != base {
			t.Fatalf("frame base %d, want %d", v.Top().Base, base)
		}
		for range len(p.Funcs[0].Entry.Instrs) - 1 { // up to the RET
			if err := v.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	word := func(v *VM, addr int64) int64 {
		t.Helper()
		x, err := v.ReadMemInt(addr)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}

	for _, x := range []int64{5, -7, 1<<31 - 1, 1 << 31, 0x1_8000_0005, -1 << 40} {
		wrapped := int64(int32(x))
		// SW and LW run inline with a register base, out of line with an
		// immediate one.
		v := run(prog(
			&mach.Instr{Op: mach.SW, A: mach.R_(0), B: mach.I_(x), Off: 0},
			&mach.Instr{Op: mach.LW, Dst: mach.R_(1), A: mach.R_(0), Off: 0},
			&mach.Instr{Op: mach.SWFP, B: mach.I_(x), Off: 4},
			&mach.Instr{Op: mach.LWFP, Dst: mach.R_(2), Off: 4},
			&mach.Instr{Op: mach.SW, A: mach.I_(base), B: mach.I_(x), Off: 8},
			&mach.Instr{Op: mach.LW, Dst: mach.R_(3), A: mach.I_(base), Off: 8},
		))
		fr := v.Top()
		if got := word(v, base); got != wrapped || fr.IntReg(1) != wrapped {
			t.Errorf("sw/lw %#x: word %#x, register %#x, want %#x", x, got, fr.IntReg(1), wrapped)
		}
		if got := word(v, base+8); got != wrapped || fr.IntReg(3) != wrapped {
			t.Errorf("sw/lw (out of line) %#x: word %#x, register %#x, want %#x", x, got, fr.IntReg(3), wrapped)
		}
		// An int register holds 32 bits, so the load wraps; the word keeps 64.
		if got := word(v, base+4); got != x || fr.IntReg(2) != wrapped {
			t.Errorf("sw.fp/lw.fp %#x: word %#x, register %#x, want %#x and %#x", x, got, fr.IntReg(2), x, wrapped)
		}
	}

	for _, f := range []float64{1.5, negZero, math.Inf(-1), nanPayload, signaling} {
		want := math.Float64bits(f)
		v := run(prog(
			&mach.Instr{Op: mach.MOV, Dst: mach.FR(0), A: mach.F_(f)},
			&mach.Instr{Op: mach.FSW, A: mach.R_(0), B: mach.FR(0), Off: 0},
			&mach.Instr{Op: mach.FLW, Dst: mach.FR(1), A: mach.R_(0), Off: 0},
			&mach.Instr{Op: mach.FSWFP, B: mach.FR(0), Off: 8},
			&mach.Instr{Op: mach.FLWFP, Dst: mach.FR(2), Off: 8},
			&mach.Instr{Op: mach.FSW, A: mach.I_(base), B: mach.FR(0), Off: 12},
		))
		fr := v.Top()
		for _, c := range []struct {
			what string
			addr int64
			reg  float64
		}{{"fsw/flw", base, fr.FloatReg(1)}, {"fsw.fp/flw.fp", base + 8, fr.FloatReg(2)}, {"fsw (out of line)", base + 12, fr.FloatReg(0)}} {
			got, err := v.ReadMemFloat(c.addr)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != want || math.Float64bits(c.reg) != want {
				t.Errorf("%s %v: word %#x, register %#x, want %#x", c.what, f,
					math.Float64bits(got), math.Float64bits(c.reg), want)
			}
		}
		if got := word(v, base); uint64(got) != want {
			t.Errorf("%v read as an int: %#x, want the float's bits %#x", f, got, want)
		}
	}
}
