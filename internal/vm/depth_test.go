package vm

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	mcc "repro/internal/compile"
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
			held := int64(cap(v.mem))*int64(unsafe.Sizeof(slot{})) + int64(cap(v.pool))*8
			for _, fr := range v.pool {
				held += int64(unsafe.Sizeof(*fr)) + int64(cap(fr.regs))*8 + int64(cap(fr.Args))*int64(unsafe.Sizeof(Val{}))
			}
			if held > DefaultMaxOutput {
				t.Errorf("%s: %d bytes of frames at the bound, want at most %d", path, held, DefaultMaxOutput)
			}
			t.Logf("%s: %d frames, %.1f MiB, %d steps", path, len(v.stack), float64(held)/(1<<20), v.Steps)
		}
	}
}
