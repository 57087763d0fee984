package dataflow

// SolveReference is the dense round-robin schedule the differential tests
// hold Solve to: sweep all blocks in index order until a full pass changes
// nothing. It is the simplest statement of the algorithm and reaches the
// same unique fixed point as the worklist schedule.
func (p *Problem) SolveReference() *Result {
	st := new(Scratch)
	p.setup(st)
	changed := true
	tmp := NewBitSet(p.Bits)
	for changed {
		changed = false
		for b := 0; b < p.Graph.N; b++ {
			if p.step(st, b, tmp) {
				changed = true
			}
		}
	}
	return &st.res
}
