package vm

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/sem"
)

// cycles compiles src at O0 (no reordering, no elimination) and returns
// the simulator cycle count.
func cycles(t *testing.T, src string) int64 {
	t.Helper()
	p, err := sem.CheckSource("lat.mc", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	m, err := New(lowerFuncs(ir.Build(p), opt.O0()))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m.Cycles
}

// TestLatencyDependentChainSlower: a chain of dependent multiplies must
// cost more cycles than the same number of independent multiplies, because
// each result stalls its consumer for the multiplier latency.
func TestLatencyDependentChainSlower(t *testing.T) {
	dep := cycles(t, `
int main() {
	int a = 3;
	int b = a * a;
	int c = b * b;
	int d = c * c;
	int e = d * d;
	return e;
}`)
	indep := cycles(t, `
int main() {
	int a = 3;
	int b = a * a;
	int c = a * a;
	int d = a * a;
	int e = a * a;
	return b + c + d + e - b - c - d;
}`)
	if dep <= indep {
		t.Errorf("dependent chain (%d cycles) should be slower than independent ops (%d cycles)",
			dep, indep)
	}
}

// TestLatencyDivExpensive: a division chain dominates an addition chain.
func TestLatencyDivExpensive(t *testing.T) {
	div := cycles(t, `
int main() {
	int a = 1000000;
	int b = a / 3;
	int c = b / 3;
	int d = c / 3;
	return d;
}`)
	add := cycles(t, `
int main() {
	int a = 1000000;
	int b = a + 3;
	int c = b + 3;
	int d = c + 3;
	return d;
}`)
	if div < add+30 { // three divisions at latency 20 vs three adds at 1
		t.Errorf("division chain %d vs addition chain %d: latency model inactive", div, add)
	}
}

// TestMarkersAreFree: marker pseudo-instructions must not consume cycles.
func TestMarkersAreFree(t *testing.T) {
	// Same program; one compiled with DCE (which adds a marker), one with
	// the marker stripped. Cycle counts must be identical.
	src := `
int main() {
	int x = 5;
	x = 6;
	print(x);
	return 0;
}`
	run := func(noMarkers bool) int64 {
		p, err := sem.CheckSource("m.mc", src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(lowerFuncs(ir.Build(p), opt.Options{DCE: true, NoMarkers: noMarkers}))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Cycles
	}
	with := run(false)
	without := run(true)
	if with != without {
		t.Errorf("markers cost cycles: with=%d without=%d (non-invasive model violated)", with, without)
	}
}

// TestFrameIsolation: recursive calls get their own registers and frame
// memory.
func TestFrameIsolation(t *testing.T) {
	src := `
int fact(int n) {
	int local[4];
	local[0] = n;
	if (n <= 1) { return 1; }
	int rest = fact(n - 1);
	/* local[0] must still hold THIS activation's n */
	return local[0] * rest;
}
int main() {
	print(fact(6));
	return 0;
}`
	p, err := sem.CheckSource("f.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(lowerFuncs(ir.Build(p), opt.O0()))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Output() != "720" {
		t.Errorf("fact(6) = %q, want 720 (frame isolation broken)", m.Output())
	}
}

// TestStackReuse: frames are popped, so deep sequential call chains don't
// grow memory without bound.
func TestStackReuse(t *testing.T) {
	src := `
int leaf(int n) {
	int pad[64];
	pad[0] = n;
	return pad[0] + 1;
}
int main() {
	int s = 0;
	int i;
	for (i = 0; i < 1000; i++) {
		s = (s + leaf(i)) % 65521;
	}
	print(s);
	return 0;
}`
	p, err := sem.CheckSource("s.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(lowerFuncs(ir.Build(p), opt.O0()))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// 1000 sequential leaf calls with 256-byte frames must reuse the same
	// stack region: total memory stays near globals + one frame.
	if got := int64(len(m.mem)) * 4; got > 16*1024 {
		t.Errorf("memory grew to %d bytes; stack frames not reclaimed", got)
	}
}
