package vm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/randprog"
	"repro/internal/vm"
)

// goldenExecDigest pins what the simulator does on the corpus workloads
// at three configurations and on 200 random programs at two: output,
// exit value, Steps and Cycles. VM-speed work must keep it: a change that
// moves it changes execution, not just speed.
const goldenExecDigest = "0a55a227a1e7169a94fc5e77d79894543ba89b0c2b97a57088d1f0479ce7d4f7"

var configs = []struct {
	name string
	cfg  compile.Config
}{
	{"O0", compile.O0()},
	{"O2NoRegAlloc", compile.O2NoRegAlloc()},
	{"O2", compile.O2()},
}

// execDigest runs every program of the golden set to exit and hashes one
// record per run, in a fixed order: the workloads in bench.Names order,
// each at O0, O2NoRegAlloc and O2, then randprog.Gen(1..200) at
// O2NoRegAlloc and O2 with a 2M step budget. Programs that fail to
// compile are skipped.
func execDigest() (string, int) {
	h := sha256.New()
	n := 0
	emit := func(name, src string, cfg compile.Config, maxSteps int64) {
		r, err := compile.Compile(name, src, cfg)
		if err != nil {
			return
		}
		m, err := vm.New(r.Mach)
		if err != nil {
			panic(err)
		}
		if maxSteps > 0 {
			m.MaxSteps = maxSteps
		}
		err = m.Run()
		n++
		fmt.Fprintf(h, "%s steps=%d cycles=%d exit=%d halted=%v err=%v\n%s\n",
			name, m.Steps, m.Cycles, m.ExitValue(), m.Halted(), err, m.Output())
	}
	for _, name := range bench.Names {
		src := bench.MustSource(name)
		for _, c := range configs {
			emit(name+".mc", src, c.cfg, 0)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		src := randprog.Gen(seed)
		for _, c := range configs[1:] {
			emit(fmt.Sprintf("rand%d.mc", seed), src, c.cfg, 2_000_000)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

func TestExecutionDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 424 programs to exit")
	}
	got, n := execDigest()
	if got != goldenExecDigest {
		t.Fatalf("execution digest over %d runs = %s, want %s\n"+
			"Output, Steps or Cycles changed. Re-pin goldenExecDigest only for an "+
			"intended execution change, and state the reason in CHANGES.md.", n, got, goldenExecDigest)
	}
}

// TestReusedFrameStartsZeroed pins that a call reusing a pooled frame sees
// zeroed registers: g's b is never assigned, so it must read 0, not the
// value f left in the same register at the same depth.
func TestReusedFrameStartsZeroed(t *testing.T) {
	const src = `
int f(int p) { int a; a = p * 7 / 3; return a; }
int g(int p) { int b; if (p > 100) { b = 1; } return b; }
int main() { int s; s = f(9); print(s); print(" "); print(g(1)); return 0; }
`
	for _, c := range configs {
		r, err := compile.Compile("zero.mc", src, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(r.Mach)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := m.Output(); got != "21 0" {
			t.Errorf("%s: output %q, want %q", c.name, got, "21 0")
		}
		if m.Cycles != 36 {
			t.Errorf("%s: cycles %d, want 36", c.name, m.Cycles)
		}
	}
}

// TestCallAllocsGrowWithDepth pins that calls and returns allocate
// nothing: a run's allocations grow with its deepest call chain (one
// pooled frame per depth), not with the number of calls it makes.
func TestCallAllocsGrowWithDepth(t *testing.T) {
	const src = `
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() { print(fib(%d)); return 0; }
`
	var calls func(n int) int
	calls = func(n int) int {
		if n < 2 {
			return 1
		}
		return 1 + calls(n-1) + calls(n-2)
	}
	for _, c := range configs {
		allocs := func(n int) float64 {
			r, err := compile.Compile("fib.mc", fmt.Sprintf(src, n), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(3, func() {
				m, err := vm.New(r.Mach)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		a10, a20 := allocs(10), allocs(20)
		t.Logf("%s: fib(10) %.0f allocations, fib(20) %.0f", c.name, a10, a20)
		if limit := float64(calls(20)) / 100; a20 >= limit {
			t.Errorf("%s: fib(20) makes %d calls and %.0f allocations, want fewer than %.0f",
				c.name, calls(20), a20, limit)
		}
		if per := (a20 - a10) / 10; per > 8 {
			t.Errorf("%s: fib(20) - fib(10) = %.0f allocations, %.1f per extra level of depth, want at most 8",
				c.name, a20-a10, per)
		}
	}
}
