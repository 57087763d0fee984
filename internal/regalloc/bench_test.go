package regalloc

import (
	"fmt"
	"testing"

	"repro/internal/mach"
)

// largeFunc builds a straight-line function over n integer vregs: the
// first w are loaded with constants, and each later vreg is the sum of
// the one before it and the one w back. About w values are live at every
// point, so the interference graph has degree about 2w everywhere and
// simplify must take potential-spill picks.
func largeFunc(n, w int) *mach.Func {
	f := &mach.Func{Name: "large"}
	b := f.NewBlock()
	f.Entry = b
	v := make([]mach.Opd, n)
	for i := range v {
		v[i] = f.NewVreg(mach.IntClass)
		in := &mach.Instr{Op: mach.MOV, Dst: v[i], A: mach.I_(int64(i))}
		if i >= w {
			in = &mach.Instr{Op: mach.ADD, Dst: v[i], A: v[i-1], B: v[i-w]}
		}
		b.Instrs = append(b.Instrs, in)
	}
	b.Instrs = append(b.Instrs, &mach.Instr{Op: mach.RET, A: v[n-1]})
	return f
}

// BenchmarkAllocateFuncLarge times allocation of synthetic functions of
// growing size, to show how allocation cost grows with the vreg count.
func BenchmarkAllocateFuncLarge(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		b.Run(fmt.Sprintf("vregs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := largeFunc(n, 16)
				b.StartTimer()
				if err := AllocateFunc(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
