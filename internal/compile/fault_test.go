package compile_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
	"repro/internal/fault"
)

// The compile.func fault point sits inside the per-function back end; a
// firing rule must surface as an ordinary compile error naming the
// pipeline (Compile, serial and parallel pipelines alike), and an
// injected worker panic must be contained to the same error shape —
// never escape to the process.

// faultDrivers are the ways a program is compiled: Compile, and pipelines
// of one and eight workers.
func faultDrivers() map[string]func(name, src string, cfg compile.Config) error {
	pipe := func(workers int) func(string, string, compile.Config) error {
		return func(name, src string, cfg compile.Config) error {
			_, _, err := compile.NewPipeline(compile.PipelineConfig{Workers: workers}).Compile(name, src, cfg)
			return err
		}
	}
	return map[string]func(string, string, compile.Config) error{
		"Compile": func(name, src string, cfg compile.Config) error {
			_, err := compile.Compile(name, src, cfg)
			return err
		},
		"workers=1": pipe(1),
		"workers=8": pipe(8),
	}
}

func TestInjectedBackEndErrorSurfaces(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	src := bench.MustSource("li")
	for name, compileLi := range faultDrivers() {
		fault.Set("compile.func", fault.Rule{Times: 1})
		err := compileLi("li", src, compile.O2())
		if err == nil {
			t.Fatalf("%s: injected back-end error did not surface", name)
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s: err = %v, want ErrInjected wrap", name, err)
		}
		if !strings.Contains(err.Error(), "compile:") {
			t.Fatalf("%s: err = %v, want compile-prefixed", name, err)
		}
	}

	// Disarmed, every driver compiles cleanly.
	fault.Disable()
	for name, compileLi := range faultDrivers() {
		if err := compileLi("li", src, compile.O2()); err != nil {
			t.Fatalf("%s: compile after disarm: %v", name, err)
		}
	}
}

func TestInjectedBackEndPanicIsContained(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	src := bench.MustSource("li")
	for name, compileLi := range faultDrivers() {
		fault.Set("compile.func", fault.Rule{Times: 1, Panic: true})
		err := compileLi("li", src, compile.O2())
		if err == nil || !strings.Contains(err.Error(), "panic compiling") {
			t.Fatalf("%s: err = %v, want contained panic", name, err)
		}
	}
}
