package compile

// Tests over the artifacts of mcperf's churn workload: the eight bench
// workloads, each at O0, O1 and O2 as the daemon configures them.

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/opt"
	"repro/internal/sem"
)

// churnArtifact is one workload compiled at one configuration.
type churnArtifact struct {
	label string
	cfg   Config
	res   *Result
}

// churnArtifacts compiles the 24 churn artifacts, in workload-file order
// and O0, O1, O2 within a workload.
func churnArtifacts(t testing.TB) []churnArtifact {
	t.Helper()
	paths, err := filepath.Glob(workloadDir + "*.mc")
	if err != nil || len(paths) != 8 {
		t.Fatalf("workload sources: %v (%d found, want 8)", err, len(paths))
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"O0", O0()},
		{"O1", Config{Opt: opt.O1(), RegAlloc: true, Sched: true}},
		{"O2", O2()},
	}
	var arts []churnArtifact
	for _, path := range paths {
		name, src := filepath.Base(path), readSource(t, path)
		for _, c := range cfgs {
			res, err := Compile(name, src, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.name, err)
			}
			arts = append(arts, churnArtifact{strings.TrimSuffix(name, ".mc") + "/" + c.name, c.cfg, res})
		}
	}
	return arts
}

// spillEncodingDigest pins the spill files of the churn artifacts byte
// for byte. The in-memory instruction layout is free to change; the file
// format is not (a change to it must bump spillVersion).
const spillEncodingDigest = "134d8976d5fa93b9844b6e0ae72f3fcf8655fdb766ae9b90a886669f8b2198be"

// TestSpillEncodingDigest hashes EncodeSpill of every churn artifact, in
// churnArtifacts order, and compares against spillEncodingDigest.
func TestSpillEncodingDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 24 artifacts")
	}
	h := sha256.New()
	for _, a := range churnArtifacts(t) {
		data, err := EncodeSpill(a.cfg, a.res)
		if err != nil {
			t.Fatalf("%s: encode: %v", a.label, err)
		}
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != spillEncodingDigest {
		t.Fatalf("spill encoding digest = %s, want %s\n"+
			"The spill file bytes changed. Re-pin only with a spillVersion bump.", got, spillEncodingDigest)
	}
}

// TestMachSizeBytesIsCeiling decodes the churn artifacts' spill files and
// checks that the machine-code share of their summed SizeBytes is at
// least the live-heap growth the decode causes, so a memory budget
// charged with SizeBytes is a real ceiling on machine code. It checks two
// states: just decoded, when each program is stubs plus the copy of its
// function list it retains, and after every body is loaded. The front
// ends are checked and held first, and each decode takes its own, so the
// growth measured is the machine program's own memory. The files are held
// throughout: the decoder copies the function list it keeps, so that copy
// is heap growth whether or not the files live on.
func TestMachSizeBytesIsCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and decodes 24 artifacts")
	}
	arts := churnArtifacts(t)
	files := make([][]byte, len(arts))
	for i, a := range arts {
		data, err := EncodeSpill(a.cfg, a.res)
		if err != nil {
			t.Fatalf("%s: encode: %v", a.label, err)
		}
		files[i] = data
	}
	srcs := make([]*Result, len(arts))
	for i, a := range arts {
		srcs[i] = &Result{File: a.res.File}
	}
	arts = nil // only the spill files and sources are held from here on

	base := liveHeap()
	fronts := make([]*sem.Program, len(files))
	var frontCharged int64
	for i, s := range srcs {
		p, err := sem.CheckSource(s.File.Name, s.File.Content)
		if err != nil {
			t.Fatalf("%s: check: %v", s.File.Name, err)
		}
		fronts[i] = p
		frontCharged += s.SizeBytes()
	}
	before := liveHeap()
	decoded := make([]*Result, len(files))
	for i, data := range files {
		res, _, _, _, err := DecodeSpillFront(data, func(string, string) *sem.Program { return fronts[i] })
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		decoded[i] = res
	}
	t.Logf("%d front ends: charged %d B (source factor), live heap %d B (%.2fx)",
		len(fronts), frontCharged, before-base, float64(frontCharged)/float64(before-base))
	check := func(state string) {
		t.Helper()
		grown := liveHeap() - before
		var charged int64
		for _, res := range decoded {
			charged += sizeOfProgram(res.Mach)
		}
		t.Logf("%d machine programs %s: charged %d B, live heap growth %d B (%.2fx)",
			len(decoded), state, charged, grown, float64(charged)/float64(grown))
		if charged < grown {
			t.Fatalf("%s: summed machine-code SizeBytes %d B is below the live-heap growth %d B of %d artifacts",
				state, charged, grown, len(decoded))
		}
	}
	check("just decoded")
	for _, res := range decoded {
		for _, f := range res.Mach.Funcs {
			if f.Loaded() {
				t.Fatalf("%s: body loaded by the decode", f.Name)
			}
			f.Load()
		}
	}
	check("with every body loaded")
	runtime.KeepAlive(decoded)
	runtime.KeepAlive(fronts)
	runtime.KeepAlive(files)
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
