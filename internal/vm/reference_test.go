package vm

import "repro/internal/mach"

// maskOf is BreakSet.mask for fn, nil when fn is not in the program.
func (bs *BreakSet) maskOf(fn *mach.Func) []uint64 {
	if fc, ok := bs.pc.of(fn); ok {
		return bs.mask(fc)
	}
	return nil
}

// runUntil is the reference engine the RunBreaks tests hold the bitmap
// loop to: it evaluates stop over the Pos before every instruction and
// single-steps otherwise, built from the public Step/Position/Halted. Like
// RunBreaks it fails fast on an already-expired deadline.
func runUntil(v *VM, stop func(Pos) bool) error {
	if err := v.checkDeadline(); err != nil {
		return err
	}
	for !v.Halted() {
		if stop(v.Position()) {
			return nil
		}
		if err := v.Step(); err != nil {
			return err
		}
	}
	return nil
}

// never is the stop predicate of a run to completion.
func never(Pos) bool { return false }
