package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"strconv"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/debuginfo"
	"repro/internal/mach"
	"repro/internal/opt"
	"repro/internal/randprog"
)

// goldenAnalysisDigest pins every answer the debug tables and the
// classifier give over the analysis corpus (see analysisDigest). Work on
// how analyses are built must keep it: a change that moves it changes
// verdicts, not just speed.
const goldenAnalysisDigest = "6350f6a5a57b3c06e4c672114b36b9f4b7a903f8f25f74668e2d899ee29e8007"

// digestCase is one configuration of the analysis corpus.
type digestCase struct {
	name string
	cfg  compile.Config
}

// analysisCases lists the corpus configurations: O1, O2NoRegAlloc and O2.
func analysisCases() []digestCase {
	o1 := compile.O2()
	o1.Opt = opt.O1()
	return []digestCase{
		{"O1", o1},
		{"O2NoRegAlloc", compile.O2NoRegAlloc()},
		{"O2", compile.O2()},
	}
}

// forEachCorpusFunc compiles the corpus — the workloads in bench.Names
// order, then randprog.Gen(1..200) — under every analysis case and calls
// fn with each function of each program, in a fixed order. A program
// that fails to compile gets one call with a nil function and the error
// appended to its name.
func forEachCorpusFunc(fn func(c digestCase, prog string, f *mach.Func)) {
	type src struct{ name, text string }
	var srcs []src
	for _, name := range bench.Names {
		srcs = append(srcs, src{name + ".mc", bench.MustSource(name)})
	}
	for seed := int64(1); seed <= 200; seed++ {
		srcs = append(srcs, src{fmt.Sprintf("rand%d.mc", seed), randprog.Gen(seed)})
	}
	for _, c := range analysisCases() {
		for _, s := range srcs {
			res, err := compile.Compile(s.name, s.text, c.cfg)
			if err != nil {
				fn(c, s.name+": "+err.Error(), nil)
				continue
			}
			for _, f := range res.Mach.Funcs {
				fn(c, s.name, f)
			}
		}
	}
}

// analysisDigest hashes, for every function of the corpus, every Table
// answer per statement (LocOf, LocsOf, InstancesOf, VarsInScope) and every
// field of every Classification from ClassifyAllAt and from ClassifyLoc at
// each statement instance.
func analysisDigest() (string, int) {
	h := sha256.New()
	n := 0
	forEachCorpusFunc(func(c digestCase, prog string, f *mach.Func) {
		if f == nil {
			io.WriteString(h, c.name+" err "+prog+"\n")
			return
		}
		a := core.Analyze(f)
		n++
		fmt.Fprintf(h, "%s %s %s stmts=%d\n", c.name, prog, a.Fn.Name, a.Table.NumStmts)
		hashFunc(h, a)
	})
	return hex.EncodeToString(h.Sum(nil)), n
}

func hashFunc(h hash.Hash, a *core.Analysis) {
	tb := a.Table
	for s := 0; s < tb.NumStmts; s++ {
		io.WriteString(h, "s"+strconv.Itoa(s))
		loc, ok := tb.LocOf(s)
		io.WriteString(h, " loc="+locString(loc, ok))
		locs, ok := tb.LocsOf(s)
		io.WriteString(h, " locs="+strconv.FormatBool(ok))
		for _, l := range locs {
			io.WriteString(h, ","+locString(l, true))
		}
		io.WriteString(h, " inst=")
		for _, l := range tb.InstancesOf(s) {
			io.WriteString(h, ","+locString(l, true))
		}
		io.WriteString(h, " vars=")
		var vars []*ast.Object
		for _, id := range tb.VarsInScope(s) {
			vars = append(vars, a.Fn.Decl.Locals[id])
		}
		for _, v := range vars {
			io.WriteString(h, ","+v.Name+"#"+strconv.Itoa(v.ID))
		}
		io.WriteString(h, "\n")
		cs, ok := a.ClassifyAllAt(s)
		io.WriteString(h, " all="+strconv.FormatBool(ok)+"\n")
		for i := range cs {
			hashClass(h, &cs[i])
		}
		for _, l := range tb.InstancesOf(s) {
			io.WriteString(h, " at "+locString(l, true)+"\n")
			for _, v := range vars {
				c := a.ClassifyLoc(l, v)
				hashClass(h, &c)
			}
		}
	}
}

func locString(l debuginfo.Loc, ok bool) string {
	if !ok {
		return "none"
	}
	if l.Block == nil {
		return "nil:" + strconv.Itoa(l.Idx)
	}
	return "L" + strconv.Itoa(l.Block.ID) + ":" + strconv.Itoa(l.Idx)
}

func hashClass(h hash.Hash, c *core.Classification) {
	fmt.Fprintf(h, "  %s state=%d cause=%d why=%q src=%v", varName(c.Var), c.State, c.Cause, c.Why, c.SrcStmts)
	if r := c.Recovered; r != nil {
		fmt.Fprintf(h, " rec={%d %s %d %g %t %d %d}", r.Kind, r.Reg, r.C, r.CF, r.IsF, r.A, r.B)
	}
	io.WriteString(h, " fields="+strconv.Itoa(len(c.Fields))+"\n")
	for i := range c.Fields {
		hashClass(h, &c.Fields[i])
	}
}

func varName(v *ast.Object) string {
	if v == nil {
		return "<nil>"
	}
	return v.Name + "#" + strconv.Itoa(v.ID)
}

// TestAnalysisDigest pins the classifier's and the debug tables' answers
// over the corpus.
func TestAnalysisDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes 624 programs")
	}
	got, n := analysisDigest()
	if got != goldenAnalysisDigest {
		t.Fatalf("analysis digest over %d functions = %s, want %s\n"+
			"A debug-table answer or a classification changed. Re-pin "+
			"goldenAnalysisDigest only for an intended verdict change, and "+
			"state the reason in CHANGES.md.", n, got, goldenAnalysisDigest)
	}
}
