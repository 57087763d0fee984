package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mach"
)

// TestAnalysisSizeBytesIsCeiling holds the analyses of the whole corpus
// and checks that their summed SizeBytes is at least the live-heap growth
// they cause, so a memory budget charged with SizeBytes is a real ceiling.
// The compiled functions are built and held first, so the growth measured
// is the analyses' own memory.
func TestAnalysisSizeBytesIsCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes 624 programs")
	}
	var jobs []*mach.Func
	forEachCorpusFunc(func(_ digestCase, _ string, f *mach.Func) {
		if f != nil {
			jobs = append(jobs, f)
		}
	})
	analyses := make([]*core.Analysis, len(jobs))
	before := liveHeap()
	var charged int64
	for i, f := range jobs {
		analyses[i] = core.Analyze(f)
		charged += analyses[i].SizeBytes()
	}
	grown := liveHeap() - before
	runtime.KeepAlive(analyses)
	runtime.KeepAlive(jobs)
	t.Logf("%d analyses: SizeBytes sum %d B, live heap growth %d B (%.2fx)",
		len(analyses), charged, grown, float64(charged)/float64(grown))
	if charged < grown {
		t.Fatalf("summed SizeBytes %d B is below the live-heap growth %d B of holding %d analyses",
			charged, grown, len(analyses))
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
