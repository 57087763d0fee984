package core

// Memory accounting for the unified artifact store: an Analysis reports an
// estimate of its resident size so the store can charge a compiled
// artifact and its lazily built analyses against one byte budget and evict
// them in lockstep.

import (
	"unsafe"

	"repro/internal/dataflow"
	"repro/internal/mach"
)

// SizeBytes estimates the resident memory cost of the analysis: its
// data-flow solution sets, cached transfer functions, precomputed
// per-breakpoint tables, and rendered texts. It charges the capacity of
// every backing array, rounded up as the heap rounds an allocation, so
// like the artifact estimator it is deliberately generous and a
// configured budget is a real ceiling (TestAnalysisSizeBytesIsCeiling).
// It charges the facts in full even when other analyses share them.
func (a *Analysis) SizeBytes() int64 {
	n := mach.HeapBytes(int64(unsafe.Sizeof(*a))) + mach.HeapBytes(int64(unsafe.Sizeof(*a.facts)))
	if a.Table != nil {
		n += a.Table.SizeBytes()
	}
	n += mach.HeapBytes(int64(cap(a.ents)) * int64(unsafe.Sizeof(recEntity{})))
	n += mach.HeapBytes(int64(cap(a.srcEnts)) * int64(unsafe.Sizeof(srcEntity{})))
	for _, s := range [][]int32{a.blockPos, a.start, a.effOff, a.effs, a.bpSlot, a.stmtBP,
		a.varEntOff, a.varEnts, a.varSrcOff, a.varSrcs} {
		n += mach.HeapBytes(int64(cap(s)) * 4)
	}
	n += bitSets(a.in) + bitSets(a.bpSets)
	// The texts are substrings of one buffer of textCap bytes.
	n += mach.HeapBytes(int64(cap(a.texts))*int64(unsafe.Sizeof(""))) + mach.HeapBytes(int64(a.textCap))
	n += mach.HeapBytes(int64(cap(a.recovered)) * int64(unsafe.Sizeof(Recovery{})))
	return n
}

// bitSets charges a slab of sets made by dataflow.NewBitSets: its header
// array and its word array, over the slab's whole capacity.
func bitSets(sets []dataflow.BitSet) int64 {
	var words int64
	for _, s := range sets[:cap(sets)] {
		words += s.SizeBytes() - int64(unsafe.Sizeof(s))
	}
	return mach.HeapBytes(int64(cap(sets))*int64(unsafe.Sizeof(dataflow.BitSet{}))) + mach.HeapBytes(words)
}
