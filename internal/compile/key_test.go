package compile

import "testing"

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
