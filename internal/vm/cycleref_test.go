package vm

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	mcc "repro/internal/compile"
	"repro/internal/mach"
	"repro/internal/randprog"
)

// cycleRef is an independent statement of the cycle model, recomputed
// from each mach.Instr alone rather than from the predecoded slots: an
// instruction issues once every register it reads (Uses) is ready, costs
// one cycle, and makes the register it writes (Def) ready Op.Latency()
// cycles after it issued. NOP, the markers and the fall-off sentinel are
// free. Each call depth has its own ready map, one table per register
// class indexed by register number, cleared on a call.
type cycleRef struct {
	cycles int64
	depth  int
	ready  [][2][]int64 // per call depth, per register class
	buf    [8]mach.Opd
}

// at returns the ready time of register o at the current depth, growing
// its table to hold it.
func (c *cycleRef) at(o mach.Opd) *int64 {
	t := &c.ready[c.depth][o.Class]
	for len(*t) <= int(o.R) {
		*t = append(*t, 0)
	}
	return &(*t)[o.R]
}

// step accounts for in (nil for the fall-off sentinel), about to execute.
func (c *cycleRef) step(in *mach.Instr) {
	if in == nil {
		c.depth--
		return
	}
	if in.Op == mach.NOP || in.IsMarker() {
		return
	}
	issue := c.cycles
	for _, u := range in.Uses(c.buf[:0]) {
		issue = max(issue, *c.at(u))
	}
	c.cycles = issue + 1
	if def := in.Def(); def.IsReg() {
		*c.at(def) = issue + int64(in.Op.Latency())
	}
	switch in.Op {
	case mach.CALL:
		c.depth++
		if c.depth == len(c.ready) {
			c.ready = append(c.ready, [2][]int64{})
		}
		for i := range c.ready[c.depth] {
			clear(c.ready[c.depth][i])
		}
	case mach.RET:
		c.depth--
	}
}

// TestCyclesMatchReference holds VM.Cycles to cycleRef after every Step,
// over the workloads and randprog.Gen(1..50) at O2NoRegAlloc and O2. The
// execution digest checks cycles only at exit; this names the first
// instruction whose accounting differs, such as a CALL whose def is made
// ready before its own arguments are read.
func TestCyclesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("steps 116 programs to exit")
	}
	files, err := filepath.Glob("../bench/testdata/*.mc")
	if err != nil || len(files) != 8 {
		t.Fatalf("want the 8 corpus workloads, got %d (%v)", len(files), err)
	}
	check := func(name, src string, cfg mcc.Config, maxSteps int64) {
		r, err := mcc.Compile(name, src, cfg)
		if err != nil {
			return
		}
		v, err := New(r.Mach)
		if err != nil {
			t.Fatal(err)
		}
		if maxSteps > 0 {
			v.MaxSteps = maxSteps
		}
		ref := &cycleRef{ready: make([][2][]int64, 1)}
		for !v.Halted() {
			in, pos := v.CurrentInstr(), v.Position()
			if err := v.Step(); err != nil {
				t.Logf("%s: %v after %d steps", name, err, v.Steps)
				return
			}
			ref.step(in)
			if v.Cycles != ref.cycles {
				t.Fatalf("%s: after %s b%d[%d] %v (step %d): Cycles %d, reference %d",
					name, pos.Fn.Name, pos.Block.ID, pos.Idx, in, v.Steps, v.Cycles, ref.cycles)
			}
		}
	}
	for _, cfg := range []mcc.Config{mcc.O2NoRegAlloc(), mcc.O2()} {
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			check(filepath.Base(file), string(src), cfg, 0)
		}
		for seed := int64(1); seed <= 50; seed++ {
			check(fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed), cfg, 2_000_000)
		}
	}
}
