package compile

// Integrity and faithfulness of the spill codec: the stored sum must
// cover every field the debugger reads, decoding must rebuild exactly what
// was encoded, and every Config field must survive.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/mach"
	"repro/internal/randprog"
	"repro/internal/sem"
)

// workloadDir holds the bench workloads' sources (bench imports compile,
// so an internal test reads them directly).
const workloadDir = "../bench/testdata/"

func readSource(t testing.TB, path string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// firstInstr returns the first instruction of p satisfying ok, or nil.
func firstInstr(p *mach.Program, ok func(*mach.Instr) bool) *mach.Instr {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if ok(in) {
					return in
				}
			}
		}
	}
	return nil
}

// encodeBody writes one function as an entry of a spill file's function
// list holds it (enc.fn).
func encodeBody(f *mach.Func) ([]byte, error) {
	e := &enc{}
	e.fn(f)
	return e.b, e.err
}

// decodeBody reads one function-list entry as the body of decl, a
// function of the front end p (dec.fn), refusing trailing bytes.
func decodeBody(data []byte, p *sem.Program, decl *ast.FuncDecl) (*mach.Func, error) {
	d := &dec{b: data, globals: p.Globals}
	f := d.fn(decl)
	if d.end(); d.err != nil {
		return nil, d.err
	}
	return f, nil
}

// loadAll loads every body of a decoded program, so a test can edit it.
func loadAll(p *mach.Program) {
	for _, f := range p.Funcs {
		f.Load()
	}
}

// TestSpillSumCoversDebugTables changes one field of a decoded artifact at
// a time, re-encodes it under the original sum, and requires DecodeSpill
// to reject every result. The fields are the debug tables a machine-code
// rendering never showed.
func TestSpillSumCoversDebugTables(t *testing.T) {
	cfg := O2()
	res, err := Compile("li.mc", readSource(t, workloadDir+"li.mc"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSpill(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		field  string
		mutate func(p *mach.Program) bool // false: field absent from li
	}{
		// The table edits keep the tables well formed, so only the sum
		// can refuse them.
		{"VarLoc", func(p *mach.Program) bool {
			for _, f := range p.Funcs {
				for i, l := range f.VarLoc {
					if l.Kind == mach.LocReg {
						f.VarLoc[i] = mach.Loc{Kind: mach.LocNone}
						return true
					}
				}
			}
			return false
		}},
		{"FrameOff", func(p *mach.Program) bool {
			for _, f := range p.Funcs {
				for i, off := range f.FrameOff {
					if off >= 0 {
						f.FrameOff[i] = -1
						return true
					}
				}
			}
			return false
		}},
		{"Recover.A", func(p *mach.Program) bool {
			in := firstInstr(p, func(in *mach.Instr) bool { return in.Recover().Var != 0 })
			if in == nil {
				return false
			}
			in.Cold.Recover.A++
			return true
		}},
		{"DefObj", func(p *mach.Program) bool {
			in := firstInstr(p, func(in *mach.Instr) bool { return in.DefObj != 0 })
			if in == nil {
				return false
			}
			in.DefObj = 0
			return true
		}},
		{"PreSched", func(p *mach.Program) bool {
			in := firstInstr(p, func(in *mach.Instr) bool { return true })
			if in == nil {
				return false
			}
			in.PreSched++
			return true
		}},
		{"Stmt", func(p *mach.Program) bool {
			in := firstInstr(p, func(in *mach.Instr) bool { return true })
			if in == nil {
				return false
			}
			in.Stmt++
			return true
		}},
	}
	for _, m := range mutations {
		t.Run(m.field, func(t *testing.T) {
			got, _, _, gotCfg, err := DecodeSpill(data)
			if err != nil {
				t.Fatal(err)
			}
			loadAll(got.Mach)
			if !m.mutate(got.Mach) {
				t.Fatalf("li at O2 has no %s to mutate", m.field)
			}
			mut, err := EncodeSpill(gotCfg, got)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(mut, data) {
				t.Fatalf("changing %s did not change the payload", m.field)
			}
			copy(mut, data[:sha256.Size])
			if _, _, _, _, err := DecodeSpill(mut); err == nil {
				t.Errorf("payload with a changed %s accepted under the original sum", m.field)
			}
		})
	}
}

// TestSpillReencodeFaithful checks that the decoder rebuilds exactly what
// was encoded, for every field: over the workloads and randprog.Gen(1..200)
// at O0, O2NoRegAlloc and O2, re-encoding a decoded spill file reproduces
// it byte for byte (every function body included), and its rendering.
func TestSpillReencodeFaithful(t *testing.T) {
	type prog struct{ name, src string }
	var progs []prog
	paths, err := filepath.Glob(workloadDir + "*.mc")
	if err != nil || len(paths) != 8 {
		t.Fatalf("workload sources: %v (%d found, want 8)", err, len(paths))
	}
	for _, path := range paths {
		progs = append(progs, prog{filepath.Base(path), readSource(t, path)})
	}
	for seed := int64(1); seed <= 200; seed++ {
		progs = append(progs, prog{fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed)})
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{{"O0", O0()}, {"O2NoRegAlloc", O2NoRegAlloc()}, {"O2", O2()}}
	for _, p := range progs {
		for _, c := range cfgs {
			res, err := Compile(p.name, p.src, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.name, c.name, err)
			}
			data, err := EncodeSpill(c.cfg, res)
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", p.name, c.name, err)
			}
			got, _, _, gotCfg, err := DecodeSpill(data)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", p.name, c.name, err)
			}
			again, err := EncodeSpill(gotCfg, got)
			if err != nil {
				t.Fatalf("%s/%s: re-encode: %v", p.name, c.name, err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("%s/%s: re-encoded spill file differs from the original", p.name, c.name)
			}
			if got.Mach.String() != res.Mach.String() {
				t.Fatalf("%s/%s: decoded rendering differs from the original", p.name, c.name)
			}
		}
	}
}

// FuzzDecodeFuncEntry fuzzes the spill codec's function bodies, one entry
// of a spill file's function list (encodeBody/decodeBody): the decoder
// never panics, and any entry it accepts re-encodes to itself. The input
// picks the declaration, of a workload's front end, that the entry is
// decoded as the body of, so object refs resolve; the seeds are every
// function of the workloads at O2, each under its own declaration.
func FuzzDecodeFuncEntry(f *testing.F) {
	paths, err := filepath.Glob(workloadDir + "*.mc")
	if err != nil || len(paths) != 8 {
		f.Fatalf("workload sources: %v (%d found, want 8)", err, len(paths))
	}
	type target struct {
		p    *sem.Program
		decl *ast.FuncDecl
	}
	var targets []target
	for _, path := range paths {
		res, err := Compile(filepath.Base(path), readSource(f, path), O2())
		if err != nil {
			f.Fatal(err)
		}
		for _, mf := range res.Mach.Funcs {
			e, err := encodeBody(mf)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(len(targets)), e)
			targets = append(targets, target{res.Sem, mf.Decl})
		}
	}
	if len(targets) > 256 {
		f.Fatalf("%d functions: a uint8 cannot pick each", len(targets))
	}
	f.Fuzz(func(t *testing.T, pick uint8, entry []byte) {
		tg := targets[int(pick)%len(targets)]
		mf, err := decodeBody(entry, tg.p, tg.decl)
		if err != nil {
			return
		}
		again, err := encodeBody(mf)
		if err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		if !bytes.Equal(again, entry) {
			t.Fatal("accepted entry re-encodes to different bytes")
		}
	})
}

// TestSpillCarriesEveryConfigField sets each field of Config (and of its
// opt.Options) alone and requires it to survive EncodeSpill/DecodeSpill
// and to give the artifact ID and the globals signature a value of its
// own. A field the codec does not know fails here: a bool the codec
// misses comes back false and shares the zero config's keys, and any
// other type has no test value.
func TestSpillCarriesEveryConfigField(t *testing.T) {
	const name, src = "t.mc", "int main() { return 4; }"
	res, err := Compile(name, src, O0())
	if err != nil {
		t.Fatal(err)
	}
	prog := ir.Build(res.Sem)
	ids := map[string]string{KeyOf(name, src, Config{}).ID(): "the zero config"}
	sigs := map[GlobalsSig]string{GlobalsSigOf(prog, Config{}): "the zero config"}
	var walk func(v reflect.Value, path string, set func())
	fields := 0
	walk = func(v reflect.Value, path string, set func()) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name, set)
			}
		case reflect.Bool:
			fields++
			t.Run(path[1:], func(t *testing.T) {
				v.SetBool(true)
				defer v.SetBool(false)
				set()
			})
		default:
			t.Errorf("Config%s is of type %s: the spill codec encodes only bool fields", path, v.Type())
		}
	}
	var cfg Config
	walk(reflect.ValueOf(&cfg).Elem(), "", func() {
		data, err := EncodeSpill(cfg, res)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, got, err := DecodeSpill(data)
		if err != nil {
			t.Fatal(err)
		}
		if got != cfg {
			t.Errorf("config %+v decoded as %+v", cfg, got)
		}
		label := fmt.Sprintf("%+v", cfg)
		if id := KeyOf(name, src, cfg).ID(); ids[id] != "" {
			t.Errorf("config %s has the artifact ID of %s", label, ids[id])
		} else {
			ids[id] = label
		}
		if sig := GlobalsSigOf(prog, cfg); sigs[sig] != "" {
			t.Errorf("config %s has the globals signature of %s", label, sigs[sig])
		} else {
			sigs[sig] = label
		}
	})
	if fields == 0 {
		t.Fatal("Config has no fields")
	}
}

// TestDecodeRefusesWideInt32Fields checks that a register number or a
// statement or order index past int32 is refused, not truncated: the
// instruction holds those fields as int32.
func TestDecodeRefusesWideInt32Fields(t *testing.T) {
	for _, c := range []struct {
		v  int64
		ok bool
	}{{1, true}, {-1, true}, {1<<31 - 1, true}, {-1 << 31, true}, {1 << 31, false}, {-1<<31 - 1, false}, {1 << 40, false}} {
		e := &enc{}
		e.int(c.v)
		d := &dec{b: e.b}
		got := d.nzInt32()
		if ok := d.err == nil; ok != c.ok || ok && int64(got) != c.v {
			t.Errorf("nzInt32 of %d = %d (err %v), want ok=%v", c.v, got, d.err, c.ok)
		}
	}
}

// TestDecodeRefusesObjRefOutOfRange sets each object ref a function body
// carries, one at a time, to the first ID past the function's locals or
// the program's globals, and requires decoding to fail with an error, not
// a panic. An instruction keeps its refs as refs, so decoding is where
// they are checked: in the instruction fields (DefObj, Sym, ReplacedVar,
// MarkObj, Recover's variable). A function's frame offsets and variable
// locations are indexed by local ID, so a row past the locals is the same
// fault.
func TestDecodeRefusesObjRefOutOfRange(t *testing.T) {
	src := `int g = 2; int main() { int a[2]; int x = g; a[0] = x; g = x + 1; print(a[0]); return g; }`
	res, err := Compile("t.mc", src, O2())
	if err != nil {
		t.Fatal(err)
	}
	nl := len(res.Mach.LookupFunc("main").Decl.Locals)
	ng := len(res.Sem.Globals)
	pastLocal := &ast.Object{Name: "past", Kind: ast.ObjLocal, ID: nl}
	pastGlobal := &ast.Object{Name: "past", Kind: ast.ObjGlobal, ID: ng}
	refs := []mach.ObjRef{mach.RefOf(pastLocal), mach.RefOf(pastGlobal)}
	spill, err := EncodeSpill(O2(), res)
	if err != nil {
		t.Fatal(err)
	}

	// fresh decodes an unshared copy of the artifact to corrupt.
	fresh := func(t *testing.T) *Result {
		got, _, _, _, err := DecodeSpill(spill)
		if err != nil {
			t.Fatal(err)
		}
		loadAll(got.Mach)
		return got
	}
	main := func(r *Result) *mach.Func { return r.Mach.LookupFunc("main") }
	// refuse requires r's spill file to be refused, and main's body on its
	// own too.
	refuse := func(t *testing.T, r *Result) {
		t.Helper()
		data, err := EncodeSpill(O2(), r)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := DecodeSpill(data); err == nil {
			t.Error("spill file accepted")
		}
		e, err := encodeBody(main(r))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeBody(e, res.Sem, main(res).Decl); err == nil {
			t.Error("function body accepted")
		}
	}
	first := func(r *Result) *mach.Instr { return main(r).Blocks[0].Instrs[0] }

	for _, ref := range refs {
		for _, c := range []struct {
			field string
			set   func(in *mach.Instr)
		}{
			{"DefObj", func(in *mach.Instr) { in.DefObj = ref }},
			{"Sym", func(in *mach.Instr) { in.Sym = ref }},
			{"ReplacedVar", func(in *mach.Instr) { in.ReplacedVar = ref }},
			{"MarkObj", func(in *mach.Instr) { in.EnsureCold().MarkObj = ref }},
			{"Recover", func(in *mach.Instr) { in.EnsureCold().Recover = mach.Recovery{Var: ref, A: 1} }},
		} {
			t.Run(fmt.Sprintf("%s/%s", c.field, ref), func(t *testing.T) {
				r := fresh(t)
				c.set(first(r))
				refuse(t, r)
			})
		}
	}
	for _, c := range []struct {
		row string
		set func(r *Result)
	}{
		{"FrameOff", func(r *Result) { f := main(r); f.FrameOff = append(f.FrameOff, 0) }},
		{"VarLoc", func(r *Result) { f := main(r); f.VarLoc = append(f.VarLoc, mach.Loc{Kind: mach.LocReg, R: 1}) }},
	} {
		t.Run(c.row, func(t *testing.T) {
			r := fresh(t)
			c.set(r)
			refuse(t, r)
		})
	}
}

// TestDecodeRefusesBadFrameTables edits a function's frame and location
// tables one way at a time and requires its body to be refused: the tables must
// have one row per local (locations only once allocated), a frame offset
// must name a slot of the frame, and a location a slot of the frame or a
// register of its class's file.
func TestDecodeRefusesBadFrameTables(t *testing.T) {
	src := `int f(int n) {
	int a[2]; float y = 1.5; int x = n; int i;
	for (i = 0; i < n; i = i + 1) { x = x + i; y = y * 2.0; }
	a[1] = x; print(a[1], y); return x;
}
int main() { return f(3); }`
	res, err := Compile("t.mc", src, O2())
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Mach.LookupFunc("f")
	good, err := encodeBody(orig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBody(good, res.Sem, orig.Decl); err != nil {
		t.Fatalf("unmodified body refused: %v", err)
	}
	// reg and none are the IDs of f's first register-allocated local and
	// of its first local with no location (the array a).
	reg, none := -1, -1
	for i, l := range orig.VarLoc {
		if l.Kind == mach.LocReg && reg < 0 {
			reg = i
		}
		if l.Kind == mach.LocNone && none < 0 {
			none = i
		}
	}
	if reg < 0 || none < 0 {
		t.Fatalf("f's locations %v lack a register or a none", orig.VarLoc)
	}
	for _, c := range []struct {
		name string
		edit func(f *mach.Func)
	}{
		{"offset past frame", func(f *mach.Func) { f.FrameOff[none] = f.FrameSize }},
		{"offset unaligned", func(f *mach.Func) { f.FrameOff[none] = 2 }},
		{"offset negative", func(f *mach.Func) { f.FrameOff[none] = -8 }},
		{"short offsets", func(f *mach.Func) { f.FrameOff = f.FrameOff[:len(f.FrameOff)-1] }},
		{"register past file", func(f *mach.Func) { f.VarLoc[reg].R = mach.NumFloatRegs + mach.NumIntRegs }},
		{"slot past frame", func(f *mach.Func) { f.VarLoc[reg] = mach.Loc{Kind: mach.LocSpill, Off: f.FrameSize} }},
		{"none with register", func(f *mach.Func) { f.VarLoc[none].R = 1 }},
		{"short locations", func(f *mach.Func) { f.VarLoc = f.VarLoc[:len(f.VarLoc)-1] }},
		{"locations before allocation", func(f *mach.Func) { f.Allocated = false }},
		{"no locations once allocated", func(f *mach.Func) { f.VarLoc = nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := decodeBody(good, res.Sem, orig.Decl)
			if err != nil {
				t.Fatal(err)
			}
			c.edit(f)
			e, err := encodeBody(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeBody(e, res.Sem, orig.Decl); err == nil {
				t.Error("body accepted")
			}
		})
	}
}

// TestSpillRejectsBadBodyAtRead: the bodies of a read-back program are
// decoded on first use, but checked when the file is read. A payload
// whose last function names an entry block past its blocks, under a
// recomputed sum, must be refused by DecodeSpill itself, not by a later
// Load.
func TestSpillRejectsBadBodyAtRead(t *testing.T) {
	res, err := Compile("li.mc", readSource(t, workloadDir+"li.mc"), O2())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSpill(O2(), res)
	if err != nil {
		t.Fatal(err)
	}
	// The last function's encoding ends with its entry block's index plus
	// one, which ends the payload.
	last := res.Mach.Funcs[len(res.Mach.Funcs)-1]
	entry := -1
	for i, b := range last.Blocks {
		if b == last.Entry {
			entry = i
		}
	}
	tail := binary.AppendUvarint(nil, uint64(entry+1))
	if entry < 0 || !bytes.HasSuffix(data, tail) {
		t.Fatalf("payload does not end with %s's entry index %d", last.Name, entry)
	}
	bad := append(bytes.Clone(data[:len(data)-len(tail)]), binary.AppendUvarint(nil, uint64(len(last.Blocks)+1))...)
	sum := sha256.Sum256(bad[sha256.Size:])
	copy(bad, sum[:])
	if _, _, _, _, err := DecodeSpill(data); err != nil {
		t.Fatalf("unmodified payload refused: %v", err)
	}
	got, _, _, _, err := DecodeSpill(bad)
	if err == nil {
		t.Fatalf("payload with %s's entry block out of range accepted at read (%d functions)", last.Name, len(got.Mach.Funcs))
	}
	if !strings.Contains(err.Error(), "block index") {
		t.Fatalf("refused for another reason: %v", err)
	}
}

// initializerForms declares a global of every initializer form
// ir.BuildGlobals reads (an int, a float, a float from an int literal, an
// int from a float literal) beside uninitialized scalar, struct and array
// globals.
const initializerForms = `struct pt { int x; float y; };
int gi = 7;
float gf = 2.5;
float gfi = 3;
int gif = 4.75;
int gz;
struct pt gs;
int ga[5];
int main() {
	gs.x = gi + gif; gs.y = gf * gfi; ga[2] = gz + 1;
	print(gs.x, gs.y, ga[2]);
	return 0;
}
`

// TestDecodedShellMatchesCompiled: a spill file carries no program shell;
// the read rebuilds it from the front end, and what it rebuilds is the
// compiled shell. Over the workloads, randprog.Gen(1..200) and
// initializerForms at O0, O2NoRegAlloc and O2, the decoded program's
// Globals are its front end's slice, its global offsets, data size and
// initializers equal the compiled program's, and function i is the front
// end's declaration i with the compiled function's Name and NumVars. So
// every global lies inside the global data, which a file can no longer
// contradict.
func TestDecodedShellMatchesCompiled(t *testing.T) {
	type prog struct{ name, src string }
	progs := []prog{{"inits.mc", initializerForms}}
	paths, err := filepath.Glob(workloadDir + "*.mc")
	if err != nil || len(paths) != 8 {
		t.Fatalf("workload sources: %v (%d found, want 8)", err, len(paths))
	}
	for _, path := range paths {
		progs = append(progs, prog{filepath.Base(path), readSource(t, path)})
	}
	for seed := int64(1); seed <= 200; seed++ {
		progs = append(progs, prog{fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed)})
	}
	for _, p := range progs {
		for _, c := range []struct {
			name string
			cfg  Config
		}{{"O0", O0()}, {"O2NoRegAlloc", O2NoRegAlloc()}, {"O2", O2()}} {
			label := p.name + "/" + c.name
			res, err := Compile(p.name, p.src, c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			data, err := EncodeSpill(c.cfg, res)
			if err != nil {
				t.Fatalf("%s: encode: %v", label, err)
			}
			got, _, _, _, err := DecodeSpill(data)
			if err != nil {
				t.Fatalf("%s: decode: %v", label, err)
			}
			want, gm := res.Mach, got.Mach
			if len(gm.Globals) != len(got.Sem.Globals) || len(gm.Globals) > 0 && &gm.Globals[0] != &got.Sem.Globals[0] {
				t.Fatalf("%s: decoded Globals are not the front end's", label)
			}
			if !slices.Equal(gm.GlobalOff, want.GlobalOff) || gm.GlobalSize != want.GlobalSize || !slices.Equal(gm.GlobalInit, want.GlobalInit) {
				t.Fatalf("%s: decoded global data %v/%d/%v, compiled %v/%d/%v", label,
					gm.GlobalOff, gm.GlobalSize, gm.GlobalInit, want.GlobalOff, want.GlobalSize, want.GlobalInit)
			}
			if gm.GlobalSize > ast.MaxDataBytes {
				t.Fatalf("%s: %d bytes of global data", label, gm.GlobalSize)
			}
			for _, g := range gm.Globals {
				off, ok := gm.GlobalOffOf(g)
				if !ok || off < 0 || off%4 != 0 || off+max(int64(g.Type.Size()), 4) > gm.GlobalSize {
					t.Fatalf("%s: global %s at %d (%v) outside the %d-byte global data", label, g.Name, off, ok, gm.GlobalSize)
				}
			}
			if len(gm.Funcs) != len(want.Funcs) {
				t.Fatalf("%s: %d functions decoded, %d compiled", label, len(gm.Funcs), len(want.Funcs))
			}
			for i, f := range gm.Funcs {
				w := want.Funcs[i]
				if f.Decl != got.Sem.Funcs[i] || f.Name != w.Name || f.Name != f.Decl.Name || f.NumVars != w.NumVars {
					t.Fatalf("%s: function %d decoded as %s (NumVars %d), compiled as %s (NumVars %d), or not bound to the front end's declaration",
						label, i, f.Name, f.NumVars, w.Name, w.NumVars)
				}
			}
		}
	}
	// Every initializer form, and none on the uninitialized globals.
	res, err := Compile("inits.mc", initializerForms, O0())
	if err != nil {
		t.Fatal(err)
	}
	wantInit := map[string]ir.Operand{
		"gi": ir.CI(7), "gf": ir.CF(2.5), "gfi": ir.CF(3), "gif": ir.CI(4),
		"gz": {}, "gs": {}, "ga": {},
	}
	for _, g := range res.Mach.Globals {
		if got, want := res.Mach.GlobalInit[g.ID], wantInit[g.Name]; got != want {
			t.Errorf("%s initialized to %+v, want %+v", g.Name, got, want)
		}
	}
}

// TestDecodeSpillRefusesBodyCount: a payload holds one body per declared
// function, in declaration order. One body short or one body long, under
// a matching sum, is refused with an error, not a panic.
func TestDecodeSpillRefusesBodyCount(t *testing.T) {
	const name, src = "t.mc", `int f(int x) { return x + 1; }
int g(int y) { return f(y) * 2; }
int main() { print(g(3)); return 0; }`
	res, err := Compile(name, src, O2())
	if err != nil {
		t.Fatal(err)
	}
	// payload encodes the header and then fs's bodies, under their sum.
	payload := func(fs []*mach.Func) []byte {
		e := &enc{b: make([]byte, sha256.Size)}
		e.uint(spillVersion)
		e.str(name)
		e.str(src)
		e.uint(configBits(O2()))
		for _, f := range fs {
			e.fn(f)
		}
		if e.err != nil {
			t.Fatal(e.err)
		}
		sum := sha256.Sum256(e.b[sha256.Size:])
		copy(e.b, sum[:])
		return e.b
	}
	fs := res.Mach.Funcs
	whole, err := EncodeSpill(O2(), res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload(fs), whole) {
		t.Fatal("a payload of every body differs from EncodeSpill's")
	}
	for _, c := range []struct {
		what string
		fs   []*mach.Func
	}{
		{"one body short", fs[:len(fs)-1]},
		{"one body long", append(slices.Clone(fs), fs[len(fs)-1])},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: decode panicked: %v", c.what, r)
				}
			}()
			if _, _, _, _, err := DecodeSpill(payload(c.fs)); err == nil {
				t.Errorf("%s: payload accepted", c.what)
			}
		}()
	}
}

// TestEncodeSpillRefusesForeignFuncOrder: a file binds body i to the
// front end's function i, so EncodeSpill refuses a program whose
// functions are not the front end's, in declaration order.
func TestEncodeSpillRefusesForeignFuncOrder(t *testing.T) {
	res, err := Compile("li.mc", readSource(t, workloadDir+"li.mc"), O2())
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Mach.Funcs
	swapped := slices.Clone(fs)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	for _, c := range []struct {
		what string
		fs   []*mach.Func
	}{{"reordered", swapped}, {"one short", fs[:len(fs)-1]}} {
		r := &Result{File: res.File, Sem: res.Sem, Mach: &mach.Program{Funcs: c.fs}}
		if _, err := EncodeSpill(O2(), r); err == nil {
			t.Errorf("%s function list encoded", c.what)
		}
	}
}
