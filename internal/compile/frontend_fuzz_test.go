package compile_test

import (
	"strings"
	"testing"

	"repro/internal/ast"
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
// panic; a result's global data is within ast.MaxDataBytes. The seeds are
// the workloads, the first random programs and global arrays at, past and
// far past the bound.
func FuzzCheckSource(f *testing.F) {
	for _, name := range bench.Names {
		f.Add(bench.MustSource(name))
	}
	for seed := int64(1); seed <= 20; seed++ {
		f.Add(randprog.Gen(seed))
	}
	for _, n := range []string{"1048576", "1048577", "99999999999999999999"} {
		f.Add("int a[" + n + "];\nint main() { a[1] = 2; return a[1]; }\n")
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
		res, err := compile.Compile("fuzz.mc", src, compile.O2())
		if err != nil && strings.Contains(err.Error(), "panic") {
			t.Fatalf("checked input panicked in the back end: %v", err)
		}
		if err == nil && (res.Mach.GlobalSize < 0 || res.Mach.GlobalSize > ast.MaxDataBytes) {
			t.Fatalf("checked input has %d bytes of global data, bound %d", res.Mach.GlobalSize, ast.MaxDataBytes)
		}
	})
}
