package compile_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/compile"
)

// TestDataBound: an array, or a program's globals together, past
// ast.MaxDataBytes is rejected at check time, and so is an array length
// that does not fit in an int; data exactly at the bound compiles. Before
// the bound, the first program compiled with 4e9 bytes of globals and the
// second with -4.
func TestDataBound(t *testing.T) {
	const words = ast.MaxDataBytes / 4
	itoa := strconv.Itoa
	for _, tc := range []struct{ src, want string }{
		{"int a[1000000000];\n", `array "a" is larger than`},
		{"int a[99999999999999999999];\n", "array length 99999999999999999999 is out of range"},
		{"int a[" + itoa(words+1) + "];\n", `array "a" is larger than`},
		{"float a[" + itoa(words/2+1) + "]; int b[" + itoa(words/2) + "];\n", `global "b" takes the global data past`},
		{"int a[" + itoa(words) + "]; int b;\n", `global "b" takes the global data past`},
		{"int f() { int a[1000000000]; a[0] = 1; return a[0]; }\n", `array "a" is larger than`},
		{"int f() { int a[9223372036854775807]; a[0] = 1; return a[0]; }\n", `array "a" is larger than`},
	} {
		src := tc.src + "int main() { return 0; }\n"
		if _, err := compile.Compile("big.mc", src, compile.O0()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: %v, want an error containing %q", tc.src, err, tc.want)
		}
	}
	for _, src := range []string{
		"int a[" + itoa(words) + "];\n",
		"int a[" + itoa(words-1) + "]; int b;\n",
		"int f() { int a[" + itoa(words) + "]; a[0] = 1; return a[0]; }\n",
	} {
		res, err := compile.Compile("edge.mc", src+"int main() { return 0; }\n", compile.O2())
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if res.Mach.GlobalSize > ast.MaxDataBytes {
			t.Errorf("%q: %d bytes of globals", src, res.Mach.GlobalSize)
		}
	}
}
