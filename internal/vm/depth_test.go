package vm

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ast"
	mcc "repro/internal/compile"
	"repro/internal/mach"
)

// TestCallDepthBound: unbounded recursion fails with ErrCallDepth once
// the stack holds maxCallDepth frames, through Step and RunBreaks alike,
// naming the caller and the callee, instead of growing the VM until the
// step budget trips. The frame memory held at the bound (frames, their
// slices and frame memory words) stays within DefaultMaxOutput.
func TestCallDepthBound(t *testing.T) {
	const src = `int f(int n) { return f(n + 1); }
int main() { return f(0); }
`
	for _, cfg := range []mcc.Config{mcc.O0(), mcc.O2NoRegAlloc(), mcc.O2()} {
		r, err := mcc.Compile("deep.mc", src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"Step", "RunBreaks"} {
			v, err := New(r.Mach)
			if err != nil {
				t.Fatal(err)
			}
			if path == "Step" {
				for err == nil && !v.Halted() {
					err = v.Step()
				}
			} else {
				err = v.RunBreaks(v.NewBreakSet(), false)
			}
			if !errors.Is(err, ErrCallDepth) {
				t.Fatalf("%s: %v, want ErrCallDepth", path, err)
			}
			if msg := err.Error(); !strings.Contains(msg, "in f calling f") {
				t.Errorf("%s: error %q does not name the caller and callee", path, msg)
			}
			if len(v.stack) != maxCallDepth {
				t.Errorf("%s: failed at depth %d, want %d", path, len(v.stack), maxCallDepth)
			}
			held := int64(cap(v.mem))*int64(unsafe.Sizeof(int64(0))) + int64(cap(v.pool))*8
			for _, fr := range v.pool {
				held += int64(unsafe.Sizeof(*fr)) + int64(cap(fr.regs))*8 + int64(cap(fr.Args))*int64(unsafe.Sizeof(Val{}))
			}
			if held > DefaultMaxOutput {
				t.Errorf("%s: %d bytes of frames at the bound, want at most %d", path, held, DefaultMaxOutput)
			}
			t.Logf("%s: %d frames, %.1f MiB, %d steps", path, len(v.stack), float64(held)/(1<<20), v.Steps)
		}
	}

	// A recursive function with a 16 KB local array reaches the frame
	// memory bound long before the frame bound: the call that would take
	// the stack past maxFrameBytes fails, and the frame memory held stays
	// within it.
	const big = `int g(int n) { int a[4096]; a[n % 4096] = n; return g(n + 1) + a[n % 4096]; }
int main() { return g(0); }
`
	for _, cfg := range []mcc.Config{mcc.O0(), mcc.O2()} {
		r, err := mcc.Compile("big.mc", big, cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, err := New(r.Mach)
		if err != nil {
			t.Fatal(err)
		}
		err = v.RunBreaks(v.NewBreakSet(), false)
		if !errors.Is(err, ErrCallDepth) {
			t.Fatalf("big frames: %v, want ErrCallDepth", err)
		}
		if msg := err.Error(); !strings.Contains(msg, "in g calling g") {
			t.Errorf("big frames: error %q does not name the caller and callee", msg)
		}
		if len(v.stack) >= maxCallDepth/8 {
			t.Errorf("big frames: failed at depth %d, want the byte bound to stop it far sooner", len(v.stack))
		}
		if used := v.sp + maxFrameBytes - v.spMax; used > maxFrameBytes || used+(v.stack[len(v.stack)-1].Fn.FrameSize+7)&^3 <= maxFrameBytes {
			t.Errorf("big frames: %d bytes of frame memory at the failing call, want within one frame of %d", used, maxFrameBytes)
		}
		if words := int64(len(v.mem)); words*4 > v.spMax+8 {
			t.Errorf("big frames: %d memory words, want at most %d", words, (v.spMax+8)/4)
		}
		t.Logf("big frames: %d frames, %d bytes of frame memory", len(v.stack), v.sp+maxFrameBytes-v.spMax)
	}

	// main's own frame is bounded the same way: New fails before it
	// allocates the frame memory. No one array may pass ast.MaxDataBytes,
	// so the 20 MB frame is five 4 MB arrays.
	const huge = `int main() {
  int a[1000000]; int b[1000000]; int c[1000000]; int d[1000000]; int e[1000000];
  a[7] = 1; b[7] = 1; c[7] = 1; d[7] = 1; e[7] = 1;
  return a[7] + b[7] + c[7] + d[7] + e[7];
}
`
	r, err := mcc.Compile("huge.mc", huge, mcc.O0())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(r.Mach); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("New with a 20 MB main frame: %v, want ErrCallDepth", err)
	}
}

// TestNewRefusesGlobalSize: New refuses a program whose global data is
// negative or past ast.MaxDataBytes (the checker never makes one; a
// hand-built or corrupt program can), before allocating its memory, and
// runs one exactly at the bound.
func TestNewRefusesGlobalSize(t *testing.T) {
	prog := handProg(&mach.Instr{Op: mach.NOP}, 3, false, 8)
	for _, size := range []int64{-4, -1 << 40, ast.MaxDataBytes + 4} {
		prog.GlobalSize = size
		if v, err := New(prog); err == nil || !strings.Contains(err.Error(), "bytes of global data") {
			t.Errorf("GlobalSize %d: New = %v, %v; want an error", size, v != nil, err)
		}
	}
	prog.GlobalSize = ast.MaxDataBytes
	v, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != nil || v.ExitValue() != 7 {
		t.Errorf("at the bound: exit %d, err %v; want 7, nil", v.ExitValue(), err)
	}
	v.Release()
}
