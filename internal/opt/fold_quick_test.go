package opt

import (
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

// evalViaInterp runs "print(a OP b)" through the unoptimized interpreter.
func evalViaInterp(t *testing.T, op string, a, b int32) (string, bool) {
	t.Helper()
	src := "int main() { int x = " + itoa(int64(a)) + "; int y = " + itoa(int64(b)) +
		"; print(x " + op + " y); return 0; }"
	prog := buildIR(t, src)
	_, out, err := ir.NewInterp(prog).Run()
	if err != nil {
		return "", false // division by zero etc.
	}
	return out, true
}

// evalViaFold runs the same expression as literals, forcing ConstFold to
// evaluate it at compile time, then interprets the folded program.
func evalViaFold(t *testing.T, op string, a, b int32) (string, bool) {
	t.Helper()
	src := "int main() { print(" + itoa(int64(a)) + " " + op + " " + itoa(int64(b)) +
		"); return 0; }"
	prog := buildIR(t, src)
	runFuncs(prog, Options{ConstFold: true, ConstProp: true, CopyProp: true})
	_, out, err := ir.NewInterp(prog).Run()
	if err != nil {
		return "", false
	}
	return out, true
}

func itoa(v int64) string {
	// Negative literals are written as (0 - n) to avoid unary parsing
	// differences in the generated source.
	if v < 0 {
		return "(0 - " + itoa(-v) + ")"
	}
	s := ""
	if v == 0 {
		return "0"
	}
	for v > 0 {
		s = string(rune('0'+v%10)) + s
		v /= 10
	}
	return s
}

// TestQuickFoldMatchesInterp: compile-time folding must agree with runtime
// evaluation for every operator on random 32-bit inputs.
func TestQuickFoldMatchesInterp(t *testing.T) {
	ops := []string{"+", "-", "*", "/", "%", "<<", ">>", "|", "^",
		"==", "!=", "<", "<=", ">", ">="}
	for _, op := range ops {
		op := op
		f := func(a, b int16) bool {
			// int16 inputs keep products inside int32 range, matching the
			// target's wrapping semantics without overflow ambiguity.
			want, ok1 := evalViaInterp(t, op, int32(a), int32(b))
			got, ok2 := evalViaFold(t, op, int32(a), int32(b))
			if ok1 != ok2 {
				return false
			}
			if !ok1 {
				return true // both reject (e.g. division by zero)
			}
			return want == got
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("op %q: %v", op, err)
		}
	}
}

// TestQuickShiftWrap32 pins the 32-bit wrapping behavior of shifts.
func TestQuickShiftWrap32(t *testing.T) {
	f := func(a int16, s uint8) bool {
		sh := int32(s % 31)
		want, ok1 := evalViaInterp(t, "<<", int32(a), sh)
		got, ok2 := evalViaFold(t, "<<", int32(a), sh)
		return ok1 && ok2 && want == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestFoldAlgebraicIdentities exercises the identity simplifications.
func TestFoldAlgebraicIdentities(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"int x = 7; print(x + 0);", "7"},
		{"int x = 7; print(0 + x);", "7"},
		{"int x = 7; print(x - 0);", "7"},
		{"int x = 7; print(x - x);", "0"},
		{"int x = 7; print(x * 1);", "7"},
		{"int x = 7; print(1 * x);", "7"},
		{"int x = 7; print(x * 0);", "0"},
		{"int x = 7; print(x / 1);", "7"},
		{"int x = 7; print(x * 8);", "56"}, // strength-reduced to shift
		{"int x = 7; print(x | 0);", "7"},
		{"int x = 7; print(x ^ 0);", "7"},
	}
	for _, c := range cases {
		src := "int main() { " + c.src + " return 0; }"
		prog := buildIR(t, src)
		runFuncs(prog, Options{ConstFold: true})
		_, out, err := ir.NewInterp(prog).Run()
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if out != c.want {
			t.Errorf("%s: got %q want %q", c.src, out, c.want)
		}
	}
}
