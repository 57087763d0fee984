package compile

// Integrity and faithfulness of the spill and function-cache codecs, at
// the wire-struct level: the stored sum must cover every field the
// debugger reads, and decoding must rebuild exactly what was encoded.

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/randprog"
)

// workloadDir holds the bench workloads' sources (bench imports compile,
// so an internal test reads them directly).
const workloadDir = "../bench/testdata/"

func readSource(t *testing.T, path string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// firstInstr returns the first instruction of w satisfying ok, or nil.
func firstInstr(w *wireArtifact, ok func(*wireInstr) bool) *wireInstr {
	for fi := range w.Funcs {
		for bi := range w.Funcs[fi].Blocks {
			for ii := range w.Funcs[fi].Blocks[bi].Instrs {
				if in := &w.Funcs[fi].Blocks[bi].Instrs[ii]; ok(in) {
					return in
				}
			}
		}
	}
	return nil
}

// firstFunc returns the first function of w satisfying ok, or nil.
func firstFunc(w *wireArtifact, ok func(*wireFunc) bool) *wireFunc {
	for fi := range w.Funcs {
		if ok(&w.Funcs[fi]) {
			return &w.Funcs[fi]
		}
	}
	return nil
}

// TestSpillSumCoversDebugTables changes one field of a spill payload at a
// time, re-encodes it under the original sum, and requires DecodeSpill to
// reject every result. The fields are the debug tables and global data a
// machine-code rendering never showed.
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
		mutate func(w *wireArtifact) bool // false: field absent from li
	}{
		{"GlobalInit", func(w *wireArtifact) bool {
			if len(w.GlobalInit) == 0 {
				return false
			}
			w.GlobalInit[0].Int++
			return true
		}},
		{"GlobalOff", func(w *wireArtifact) bool {
			if len(w.GlobalOff) == 0 {
				return false
			}
			w.GlobalOff[0].Off += 8
			return true
		}},
		{"VarLoc", func(w *wireArtifact) bool {
			f := firstFunc(w, func(f *wireFunc) bool { return len(f.VarLoc) > 0 })
			if f == nil {
				return false
			}
			f.VarLoc[0].Loc.R++
			return true
		}},
		{"FrameOff", func(w *wireArtifact) bool {
			f := firstFunc(w, func(f *wireFunc) bool { return len(f.FrameOff) > 0 })
			if f == nil {
				return false
			}
			f.FrameOff[0].Off += 8
			return true
		}},
		{"Recover.A", func(w *wireArtifact) bool {
			in := firstInstr(w, func(in *wireInstr) bool { return in.HasRecover })
			if in == nil {
				return false
			}
			in.RecoverA++
			return true
		}},
		{"DefObj", func(w *wireArtifact) bool {
			in := firstInstr(w, func(in *wireInstr) bool { return in.DefObj >= 0 })
			if in == nil {
				return false
			}
			in.DefObj = -1
			return true
		}},
		{"PreSched", func(w *wireArtifact) bool {
			in := firstInstr(w, func(in *wireInstr) bool { return true })
			if in == nil {
				return false
			}
			in.PreSched++
			return true
		}},
		{"Stmt", func(w *wireArtifact) bool {
			in := firstInstr(w, func(in *wireInstr) bool { return true })
			if in == nil {
				return false
			}
			in.Stmt++
			return true
		}},
	}
	for _, m := range mutations {
		t.Run(m.field, func(t *testing.T) {
			var w wireArtifact
			if err := gob.NewDecoder(bytes.NewReader(data[sha256.Size:])).Decode(&w); err != nil {
				t.Fatal(err)
			}
			if !m.mutate(&w) {
				t.Fatalf("li at O2 has no %s to mutate", m.field)
			}
			var buf bytes.Buffer
			buf.Write(data[:sha256.Size])
			if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
				t.Fatal(err)
			}
			if _, _, _, _, err := DecodeSpill(buf.Bytes()); err == nil {
				t.Errorf("payload with a changed %s accepted under the original sum", m.field)
			}
		})
	}
}

// TestSpillReencodeFaithful checks that the decoders rebuild exactly what
// was encoded, for every field: over the workloads and randprog.Gen(1..200)
// at O0, O2NoRegAlloc and O2, re-encoding a decoded spill file reproduces
// it byte for byte (and its rendering), and re-encoding every decoded
// function-cache entry reproduces that entry.
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
			for _, f := range res.Mach.Funcs {
				e, err := encodeFuncEntry(f)
				if err != nil {
					t.Fatalf("%s/%s: %s: encode entry: %v", p.name, c.name, f.Name, err)
				}
				df, err := decodeFuncEntry(e, res.Sem)
				if err != nil {
					t.Fatalf("%s/%s: %s: decode entry: %v", p.name, c.name, f.Name, err)
				}
				if e2, err := encodeFuncEntry(df); err != nil || !bytes.Equal(e2, e) {
					t.Fatalf("%s/%s: %s: re-encoded entry differs from the original (err %v)", p.name, c.name, f.Name, err)
				}
			}
		}
	}
}
