package compile_test

// Round-trip tests for the disk-tier artifact codec: every evaluation
// workload, under each measured configuration, must decode to machine
// code whose canonical rendering is byte-identical to the original.

import (
	"bytes"
	"crypto/sha256"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/sem"
)

var spillConfigs = map[string]compile.Config{
	"O0":           compile.O0(),
	"O2":           compile.O2(),
	"O2NoRegAlloc": compile.O2NoRegAlloc(),
}

func TestSpillRoundTripWorkloads(t *testing.T) {
	for _, name := range bench.Names {
		src := bench.MustSource(name)
		for cfgName, cfg := range spillConfigs {
			t.Run(name+"/"+cfgName, func(t *testing.T) {
				roundTrip(t, name+".mc", src, cfg)
			})
		}
	}
}

func TestSpillRoundTripFeatures(t *testing.T) {
	// Small programs exercising wire-format corners: global arrays and
	// scalars with initializers, float formatting, recovery annotations
	// from strength reduction, multi-function programs.
	progs := map[string]string{
		"globals": `
int g = 7;
int a[8];
float pi = 3.5;
int main() {
	int i;
	for (i = 0; i < 8; i++) { a[i] = g + i; }
	print(a[3]);
	print(pi);
	return a[7];
}
`,
		"strength": `
int a[32];
int main() {
	int i;
	for (i = 0; i < 32; i++) { a[i] = i * 3; }
	return a[31];
}
`,
		"calls": `
int add(int x, int y) { return x + y; }
int twice(int x) { return add(x, x); }
int main() {
	print(twice(21));
	return twice(21);
}
`,
	}
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			roundTrip(t, name+".mc", src, compile.O2())
		})
	}
}

func roundTrip(t *testing.T, name, src string, cfg compile.Config) {
	t.Helper()
	res, err := compile.Compile(name, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := compile.EncodeSpill(cfg, res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, gotName, gotSrc, gotCfg, err := compile.DecodeSpill(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotName != name || gotSrc != src || gotCfg != cfg {
		t.Fatalf("identity mismatch: (%q, %d source bytes, %+v)", gotName, len(gotSrc), gotCfg)
	}
	want, gotStr := res.Mach.String(), got.Mach.String()
	if want != gotStr {
		t.Fatalf("machine code not byte-identical after round trip:\n--- original ---\n%s\n--- decoded ---\n%s", want, gotStr)
	}
	if got.File == nil || got.Sem == nil {
		t.Fatal("decoded result missing front-end levels")
	}
	if got.IR != nil {
		t.Fatal("decoded result should not carry optimized IR")
	}
	// Identity invariants the debugger relies on: instruction object tags
	// must point into the replayed front end's object graph.
	for _, f := range got.Mach.Funcs {
		decl := got.Sem.File.LookupFunc(f.Name)
		if f.Decl != decl {
			t.Fatalf("%s: Decl not resolved into replayed AST", f.Name)
		}
	}
}

// TestDecodeSpillFrontTakesOnlyAMatchingProgram: an offered program is
// used only when its file name and text equal the spill header's; any
// other offer is ignored and the front end replayed, and every decode
// yields the same machine code.
func TestDecodeSpillFrontTakesOnlyAMatchingProgram(t *testing.T) {
	name, src := "gcc.mc", bench.MustSource("gcc")
	res, err := compile.Compile(name, src, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	data, err := compile.EncodeSpill(compile.O2(), res)
	if err != nil {
		t.Fatal(err)
	}
	check := func(n, s string) *sem.Program {
		p, err := sem.CheckSource(n, s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		what  string
		offer *sem.Program
		take  bool
	}{
		{"same name and text", check(name, src), true},
		{"other name", check("other.mc", src), false},
		{"other text", check(name, src+"\nint extra() { return 1; }\n"), false},
		{"no offer", nil, false},
	} {
		var asked [2]string
		got, gotName, gotSrc, _, err := compile.DecodeSpillFront(data, func(n, s string) *sem.Program {
			asked = [2]string{n, s}
			return tc.offer
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if asked != [2]string{name, src} || gotName != name || gotSrc != src {
			t.Fatalf("%s: offer asked for %q, decoded %q", tc.what, asked[0], gotName)
		}
		if took := got.Sem == tc.offer; took != tc.take {
			t.Fatalf("%s: took the offer = %v, want %v", tc.what, took, tc.take)
		}
		if got.File != got.Sem.File.Source || got.File.Name != name || got.File.Content != src {
			t.Fatalf("%s: decoded file is not the program's", tc.what)
		}
		if got.Mach.String() != res.Mach.String() {
			t.Fatalf("%s: machine code differs", tc.what)
		}
		for _, f := range got.Mach.Funcs {
			if f.Decl != got.Sem.File.LookupFunc(f.Name) {
				t.Fatalf("%s: %s not resolved into the decode's front end", tc.what, f.Name)
			}
		}
	}
}

func TestSpillRejectsCorruptData(t *testing.T) {
	res, err := compile.Compile("t.mc", "int main() { return 4; }", compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	data, err := compile.EncodeSpill(compile.O2(), res)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := compile.DecodeSpill(data[:len(data)/2]); err == nil {
		t.Error("truncated record decoded")
	}
	if _, _, _, _, err := compile.DecodeSpill([]byte("not a spill file")); err == nil {
		t.Error("garbage decoded")
	}
}

// TestSpillRejectsOldVersion decodes testdata/spill-v3.art, a small
// program's O2 spill file in the version-3 (gob) format: its sum holds, so
// the version must reject it, as an error and without a panic.
func TestSpillRejectsOldVersion(t *testing.T) {
	data, err := os.ReadFile("testdata/spill-v3.art")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := compile.DecodeSpill(data); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-3 spill file: err = %v, want a version error", err)
	}
}

func TestSpillDigestGuardsMachineCode(t *testing.T) {
	// Every single-bit flip in a spill file — in the sum, the machine
	// code, the debug tables, the globals or the source text — must be
	// rejected, and none may panic: a corrupt file is never served.
	cfg := compile.O2()
	res, err := compile.Compile("li.mc", bench.MustSource("li"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := compile.EncodeSpill(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	flips, accepted := 0, 0
	for i := 0; i < len(data); i += 13 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 1 << (i % 8)
		flips++
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("flip at byte %d panicked: %v", i, r)
				}
			}()
			if _, _, _, _, err := compile.DecodeSpill(mut); err == nil {
				accepted++
			}
		}()
	}
	if accepted != 0 {
		t.Errorf("%d of %d single-bit flips accepted", accepted, flips)
	}
}

// FuzzDecodeSpill checks that DecodeSpill never panics and that any input
// it accepts re-encodes to itself. The input is the payload; the harness
// stamps its sum, so mutations reach the decoder behind the sum check. The
// seeds are the workloads' O2 payloads. Every body of an accepted input is
// loaded before it re-encodes: a body the read accepted must load without
// a panic.
func FuzzDecodeSpill(f *testing.F) {
	for _, name := range bench.Names {
		res, err := compile.Compile(name+".mc", bench.MustSource(name), compile.O2())
		if err != nil {
			f.Fatal(err)
		}
		data, err := compile.EncodeSpill(compile.O2(), res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[sha256.Size:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		sum := sha256.Sum256(payload)
		data := append(sum[:], payload...)
		res, _, _, cfg, err := compile.DecodeSpill(data)
		if err != nil {
			return
		}
		for _, f := range res.Mach.Funcs {
			f.Load()
		}
		again, err := compile.EncodeSpill(cfg, res)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted input re-encodes to different bytes")
		}
	})
}

func TestResultSizeBytes(t *testing.T) {
	res, err := compile.Compile("t.mc", bench.MustSource("compress"), compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	n := res.SizeBytes()
	if n <= 0 {
		t.Fatalf("SizeBytes = %d", n)
	}
	// The estimate must at least cover the retained source text and grow
	// with program size.
	if n < int64(len(res.File.Content)) {
		t.Fatalf("SizeBytes %d smaller than source text %d", n, len(res.File.Content))
	}
	small, err := compile.Compile("s.mc", "int main() { return 0; }", compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	if small.SizeBytes() >= n {
		t.Fatalf("small program (%d) not smaller than compress (%d)", small.SizeBytes(), n)
	}
	if !strings.Contains(res.Mach.String(), "compress") {
		t.Fatal("sanity: compress not in rendering")
	}
}
