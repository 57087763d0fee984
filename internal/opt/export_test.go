package opt

import "repro/internal/ir"

// Workspace is the per-function scratch RunFunc makes; the external tests
// share one across functions to show that no pass reads what an earlier
// pass application left in it.
type Workspace = workspace

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return new(workspace) }

// RunFuncIn is RunFunc working in ws.
func RunFuncIn(ws *Workspace, f *ir.Func, o Options) { runFunc(ws, f, o) }

// ScheduledPass is one pass application of RunFunc's schedule.
type ScheduledPass struct {
	Name string
	Run  func(ws *Workspace, f *ir.Func) bool
}

// Schedule returns the pass applications RunFunc makes under o, in order.
func Schedule(o Options) []ScheduledPass {
	var s []ScheduledPass
	for _, p := range schedule(o) {
		s = append(s, ScheduledPass{p.name, p.run})
	}
	return s
}

// DCE, LoopInvert and Unroll run one pass on f in a workspace of its own,
// for the tests that apply a single pass.
func DCE(f *ir.Func) bool        { return dce(new(workspace), f) }
func LoopInvert(f *ir.Func) bool { return loopInvert(new(workspace), f) }
func Unroll(f *ir.Func) bool     { return unroll(new(workspace), f) }
