package compile_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/randprog"
	"repro/internal/sem"
	"repro/internal/source"
)

// FuzzCheckSource feeds arbitrary text to the front end. The lexer,
// parser, checker and ir.Build must never panic; input they reject must
// come back with diagnostics; input that checks must compile at O2 to a
// result or an error, and the error must not be a contained back-end
// panic. The seeds are the workloads and the first random programs.
func FuzzCheckSource(f *testing.F) {
	for _, name := range bench.Names {
		f.Add(bench.MustSource(name))
	}
	for seed := int64(1); seed <= 20; seed++ {
		f.Add(randprog.Gen(seed))
	}
	f.Fuzz(func(t *testing.T, src string) {
		file := source.NewFile("fuzz.mc", src)
		var errs source.ErrorList
		af := parser.Parse(file, &errs)
		if errs.Len() > 0 {
			if err := errs.Err(); err == nil || err.Error() == "" {
				t.Fatal("parse failed without a diagnostic")
			}
			return
		}
		sp, err := sem.Check(af, &errs)
		if err != nil {
			if err.Error() == "" || errs.Len() == 0 {
				t.Fatal("check failed without a diagnostic")
			}
			return
		}
		ir.Build(sp)
		if _, err := compile.Compile("fuzz.mc", src, compile.O2()); err != nil && strings.Contains(err.Error(), "panic") {
			t.Fatalf("checked input panicked in the back end: %v", err)
		}
	})
}
