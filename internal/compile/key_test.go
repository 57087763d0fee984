package compile

import (
	"strings"
	"testing"
)

// TestCacheKeyIncludesConfig: the artifact cache key covers the pipeline
// configuration, so one source compiled at O0 and O2 gets two handles.
func TestCacheKeyIncludesConfig(t *testing.T) {
	const src = "int main() { int x = 1; print(x); return x; }"
	if KeyOf("t.mc", src, O2()).ID() == KeyOf("t.mc", src, O0()).ID() {
		t.Fatal("artifact IDs of different configs collide")
	}
	if KeyOf("t.mc", src, O2()).ID() != KeyOf("t.mc", src, O2()).ID() {
		t.Fatal("artifact ID of one (name, source, config) is not stable")
	}
}

// TestKeyOfHashesSourceInPlace pins that KeyOf does not copy the source:
// hashing a 1 MiB source allocates no more than hashing a one-line one.
func TestKeyOfHashesSourceInPlace(t *testing.T) {
	small := "int main() { return 0; }"
	big := strings.Repeat("// padding line of a large source file\n", 1<<20/40) + small
	if KeyOf("t.mc", small, O2()) == KeyOf("t.mc", big, O2()) {
		t.Fatal("different sources share a key")
	}
	a := testing.AllocsPerRun(20, func() { KeyOf("t.mc", small, O2()) })
	b := testing.AllocsPerRun(20, func() { KeyOf("t.mc", big, O2()) })
	if b > a {
		t.Errorf("KeyOf allocates %v times on a %d-byte source, %v on a %d-byte one", b, len(big), a, len(small))
	}
}
