package compile_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/randprog"
)

// goldenDigest pins the machine code the compiler emits for the corpus
// workloads at three configurations and for 400 random programs at O2.
// Compile-speed work must keep it: a change that moves it changes
// output, not just speed.
const goldenDigest = "2b17fde1a1eaee8102ea10e8efe8d4516ba45982d2997e0b4f8dec04aa3d7d62"

// outputDigest hashes r.Mach.String() (or the compile error) of every
// program in the golden set, in a fixed order: the workloads in
// bench.Names order, each at O0, O2NoRegAlloc and O2, then
// randprog.Gen(1..400) at O2.
func outputDigest() (string, int) {
	h := sha256.New()
	n := 0
	emit := func(name, src string, cfg compile.Config) {
		n++
		r, err := compile.Compile(name, src, cfg)
		if err != nil {
			io.WriteString(h, "err "+err.Error()+"\n")
			return
		}
		io.WriteString(h, r.Mach.String()+"\n")
	}
	for _, name := range bench.Names {
		src := bench.MustSource(name)
		for _, cfg := range []compile.Config{compile.O0(), compile.O2NoRegAlloc(), compile.O2()} {
			emit(name+".mc", src, cfg)
		}
	}
	for seed := int64(1); seed <= 400; seed++ {
		emit(fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed), compile.O2())
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

func TestCompileOutputDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 424 programs")
	}
	got, n := outputDigest()
	if got != goldenDigest {
		t.Fatalf("compiler output digest over %d programs = %s, want %s\n"+
			"The emitted machine code changed. Re-pin goldenDigest only for an "+
			"intended output change, and state the reason in CHANGES.md.", n, got, goldenDigest)
	}
}
