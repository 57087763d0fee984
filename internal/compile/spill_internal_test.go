package compile

// Integrity and faithfulness of the spill codec: the stored sum must
// cover every field the debugger reads, decoding must rebuild exactly what
// was encoded, and every Config field must survive.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// decodeBody reads one function-list entry against the front end p
// (dec.fn), refusing trailing bytes.
func decodeBody(data []byte, p *sem.Program) (*mach.Func, error) {
	d := &dec{b: data, globals: p.Globals}
	f := d.fn(p)
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
// to reject every result. The fields are the debug tables and global data
// a machine-code rendering never showed.
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
		{"GlobalInit", func(p *mach.Program) bool {
			for _, o := range sortedObjs(p.GlobalInit) {
				op := p.GlobalInit[o]
				op.Int++
				p.GlobalInit[o] = op
				return true
			}
			return false
		}},
		{"GlobalOff", func(p *mach.Program) bool {
			for _, o := range sortedObjs(p.GlobalOff) {
				p.GlobalOff[o] += 8
				return true
			}
			return false
		}},
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
// picks the workload whose front end the entry decodes against, so object
// refs resolve; the seeds are every function of the workloads at O2.
func FuzzDecodeFuncEntry(f *testing.F) {
	paths, err := filepath.Glob(workloadDir + "*.mc")
	if err != nil || len(paths) != 8 {
		f.Fatalf("workload sources: %v (%d found, want 8)", err, len(paths))
	}
	var progs []*sem.Program
	for i, path := range paths {
		res, err := Compile(filepath.Base(path), readSource(f, path), O2())
		if err != nil {
			f.Fatal(err)
		}
		progs = append(progs, res.Sem)
		for _, mf := range res.Mach.Funcs {
			e, err := encodeBody(mf)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), e)
		}
	}
	f.Fuzz(func(t *testing.T, prog uint8, entry []byte) {
		mf, err := decodeBody(entry, progs[int(prog)%len(progs)])
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

// TestInitializerOperandCodec holds the initializer-operand bytes to the
// pointer-free ir.Operand: a constant round-trips bit for bit (a float's
// -0 and NaN payload included), and an operand the layout cannot hold is
// refused on both sides: one naming a variable (an initializer has no
// function to resolve it in) and one carrying both an integer and a float
// payload (the operand has one int64 for either).
func TestInitializerOperandCodec(t *testing.T) {
	for _, o := range []ir.Operand{
		{}, ir.CI(0), ir.CI(-7), ir.CF(0), ir.CF(math.Copysign(0, -1)), ir.CF(2.5),
		ir.CF(math.Float64frombits(0x7ff8000000000abc)), ir.TempOf(3, ir.F),
	} {
		e := &enc{}
		e.irOperand(o)
		d := &dec{b: e.b}
		if got := d.irOperand(); e.err != nil || d.err != nil || got != o {
			t.Errorf("%+v: decoded %+v (enc err %v, dec err %v)", o, got, e.err, d.err)
		}
	}
	e := &enc{}
	if e.irOperand(ir.Operand{Kind: ir.Var, ID: 1}); e.err == nil {
		t.Error("encoded an initializer naming a variable")
	}
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"variable", []byte{byte(ir.Var) | irObj, 2}},
		{"integer payload on a float", []byte{byte(ir.ConstF) | irTyF | irInt, 2}},
		{"float payload on an integer", []byte{byte(ir.ConstI) | irFl, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
	} {
		d := &dec{b: c.b}
		if d.irOperand(); d.err == nil {
			t.Errorf("decoded an initializer with a %s", c.name)
		}
	}
}

// TestDecodeRefusesObjRefOutOfRange sets each object ref a spill file or
// function body carries, one at a time, to the first ID past the
// function's locals or the program's globals, and requires decoding to
// fail with an error, not a panic. An instruction keeps its refs as refs,
// so decoding is where they are checked: in the instruction fields
// (DefObj, Sym, ReplacedVar, MarkObj, Recover's variable) and in the
// globals tables' rows. A function's frame offsets and variable locations
// are indexed by local ID, so a row past the locals is the same fault.
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
	// refuse requires r's spill file to be refused and, when entry is
	// set (the ref is main's, not the globals tables'), main's body on its
	// own too.
	refuse := func(t *testing.T, r *Result, entry bool) {
		t.Helper()
		data, err := EncodeSpill(O2(), r)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := DecodeSpill(data); err == nil {
			t.Error("spill file accepted")
		}
		if !entry {
			return
		}
		e, err := encodeBody(main(r))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeBody(e, res.Sem); err == nil {
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
				refuse(t, r, true)
			})
		}
	}
	for _, c := range []struct {
		row   string
		entry bool
		set   func(r *Result)
	}{
		{"FrameOff", true, func(r *Result) { f := main(r); f.FrameOff = append(f.FrameOff, 0) }},
		{"VarLoc", true, func(r *Result) { f := main(r); f.VarLoc = append(f.VarLoc, mach.Loc{Kind: mach.LocReg, R: 1}) }},
		{"Globals", false, func(r *Result) { r.Mach.Globals = append(r.Mach.Globals, pastGlobal) }},
		{"GlobalOff", false, func(r *Result) { r.Mach.GlobalOff[pastGlobal] = 0 }},
		{"GlobalInit", false, func(r *Result) { r.Mach.GlobalInit[pastGlobal] = res.Mach.GlobalInit[res.Sem.Globals[0]] }},
	} {
		t.Run(c.row, func(t *testing.T) {
			r := fresh(t)
			c.set(r)
			refuse(t, r, c.entry)
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
	if _, err := decodeBody(good, res.Sem); err != nil {
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
		{"variables past locals", func(f *mach.Func) { f.NumVars++ }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := decodeBody(good, res.Sem)
			if err != nil {
				t.Fatal(err)
			}
			c.edit(f)
			e, err := encodeBody(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeBody(e, res.Sem); err == nil {
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
