package oracle

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/compile"
	"repro/internal/debuginfo"
)

// TestScratch is a triage tool, not a regression test: it runs the
// differential on ORACLE_SCRATCH (a MiniC source path) and dumps the
// optimized code of ORACLE_SCRATCH_FUNC (default main) with marker,
// def-tag, and statement metadata. Skipped unless the env var is set.
func TestScratch(t *testing.T) {
	path := os.Getenv("ORACLE_SCRATCH")
	if path == "" {
		t.Skip("set ORACLE_SCRATCH=<file.mc> to use")
	}
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfgName := os.Getenv("ORACLE_SCRATCH_CFG")
	if cfgName == "" {
		cfgName = "O2"
	}
	cfg := DefaultConfigs()[cfgName]
	ms, err := diffSource(-1, "scratch.mc", string(src), map[string]compile.Config{cfgName: cfg}, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		fmt.Printf("MISMATCH %s\n", m)
	}
	res, err := compile.Compile("scratch.mc", string(src), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fn := os.Getenv("ORACLE_SCRATCH_FUNC")
	if fn == "" {
		fn = "main"
	}
	f := res.Mach.LookupFunc(fn)
	fmt.Printf("func %s: Scheduled=%v Allocated=%v\n", fn, f.Scheduled, f.Allocated)
	tbl := debuginfo.Build(f)
	for s := 0; s < f.Decl.NumStmts; s++ {
		if loc, ok := tbl.LocOf(s); ok && tbl.HasOwnLoc(s) {
			fmt.Printf("LocOf(s%d) = %s idx=%d instances=%v\n", s, loc.Block, loc.Idx, tbl.InstancesOf(s))
		}
	}
	for _, b := range f.Blocks {
		fmt.Printf("%s: -> %v\n", b.String(), b.Succs)
		for _, in := range b.Instrs {
			meta := ""
			if in.DefObj != 0 {
				meta += " def=" + f.ObjName(in.DefObj)
			}
			if in.MarkObj() != 0 {
				meta += fmt.Sprintf(" mark=%s alias=%s", f.ObjName(in.MarkObj()), in.MarkAlias())
			}
			if r := in.Recover(); r.Var != 0 {
				meta += fmt.Sprintf(" lin=%s*%d+%d", f.ObjName(r.Var), r.A, r.B)
			}
			if in.ReplacedVar != 0 {
				meta += " repl=" + f.ObjName(in.ReplacedVar)
			}
			fmt.Printf("  %-28s ; s%d o%d%s\n", in.StringIn(f), in.Stmt, in.OrigIdx, meta)
		}
	}
}
