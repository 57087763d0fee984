package debugger

import "repro/internal/vm"

// The reference engine the equivalence tests hold Continue and Step to:
// the stop rule is a predicate over the Pos, evaluated before every
// instruction of a single-stepping loop built from the VM's public API,
// with no predecoded bitmap involved.

// runUntil single-steps v until stop holds at the current position or the
// program halts.
func runUntil(v *vm.VM, stop func(vm.Pos) bool) error {
	for !v.Halted() && !stop(v.Position()) {
		if err := v.Step(); err != nil {
			return err
		}
	}
	return nil
}

// ContinueRef is Continue over the predicate loop: it evaluates every
// armed breakpoint before each instruction.
func (d *Debugger) ContinueRef() (*Breakpoint, error) {
	first := true
	err := runUntil(d.VM, func(p vm.Pos) bool {
		if first {
			// Don't immediately re-trigger the breakpoint we stopped at.
			first = false
			if d.stopped != nil && d.matches(p) != nil {
				return false
			}
		}
		return d.matches(p) != nil
	})
	if err != nil {
		return nil, err
	}
	return d.afterRun()
}

// StepRef is Step over the predicate loop: after one instruction it stops
// at the first statement-tagged instruction of another statement or
// function.
func (d *Debugger) StepRef() (*Breakpoint, error) {
	if d.VM.Halted() {
		return nil, nil
	}
	startFn := d.VM.Position().Fn
	startStmt := d.currentStmt()
	if err := d.VM.Step(); err != nil {
		return nil, err
	}
	err := runUntil(d.VM, func(p vm.Pos) bool {
		in := d.VM.CurrentInstr()
		return in != nil && in.Stmt >= 0 && (p.Fn != startFn || int(in.Stmt) != startStmt)
	})
	if err != nil {
		return nil, err
	}
	return d.afterStep()
}
