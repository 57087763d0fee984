// Package compile is the driver tying the pipeline together:
// parse → check → build IR → global optimization → lowering →
// register allocation → instruction scheduling.
//
// Every program is compiled by one driver, Pipeline (pipeline.go): the
// whole-program front end, then each function's back end on its own.
// Compile is that driver run serially.
package compile

import (
	"repro/internal/ir"
	"repro/internal/mach"
	"repro/internal/opt"
	"repro/internal/sem"
	"repro/internal/source"
)

// Config selects the pipeline configuration. The paper's two measured
// configurations are:
//
//	Figure 5(a): Opt=opt.O2(), RegAlloc=false, Sched=false
//	Figure 5(b): Opt=opt.O2(), RegAlloc=true,  Sched=false
//
// (cmcc's scheduling endangerment is handled by the companion analysis and
// can be enabled with Sched=true.)
//
// pkg/minic's functional options resolve to a Config (minic.ResolveConfig);
// the service and the ablation harnesses build one directly.
type Config struct {
	Opt      opt.Options
	RegAlloc bool
	Sched    bool
}

// O0 compiles without any optimization, register allocation or
// scheduling.
func O0() Config { return Config{Opt: opt.O0()} }

// O1 compiles with local optimizations, register allocation and
// scheduling.
func O1() Config { return Config{Opt: opt.O1(), RegAlloc: true, Sched: true} }

// O2 compiles with full global optimization, register allocation and
// scheduling.
func O2() Config { return Config{Opt: opt.O2(), RegAlloc: true, Sched: true} }

// O2NoRegAlloc is the Figure 5(a) configuration.
func O2NoRegAlloc() Config { return Config{Opt: opt.O2()} }

// Result bundles the program at every level.
type Result struct {
	File *source.File
	Sem  *sem.Program
	IR   *ir.Program
	Mach *mach.Program
}

// Compile runs the full pipeline over MiniC source text on one worker,
// without a function cache. It is Pipeline.Compile with the metrics
// dropped, so a back-end panic or an injected "compile.func" fault comes
// back as an error here too.
func Compile(name, src string, cfg Config) (*Result, error) {
	res, _, err := NewPipeline(PipelineConfig{Workers: 1}).Compile(name, src, cfg)
	return res, err
}
