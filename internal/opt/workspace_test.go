package opt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"repro/internal/ir"
	"repro/internal/opt"
)

// TestSharedWorkspaceMatchesGolden optimizes the digest corpus with one
// workspace shared by every function of every program, in corpus order
// and then in reverse (programs and the functions within each program),
// and holds both runs to goldenOptIRDigest. RunFunc gives each function a
// fresh workspace, so a buffer that carries state from one pass
// application or one function into the next shows up only here.
func TestSharedWorkspaceMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes 208 programs under 12 configurations twice")
	}
	units := corpusUnits()
	ws := opt.NewWorkspace()
	// optimize returns unit u's share of the digest stream, optimizing its
	// functions last first when reverse is set.
	optimize := func(u corpusUnit, reverse bool) []byte {
		var buf bytes.Buffer
		funcs, err := buildUnit(u)
		for i := range funcs {
			if reverse {
				i = len(funcs) - 1 - i
			}
			opt.RunFuncIn(ws, funcs[i], u.o)
		}
		writeUnit(&buf, funcs, err)
		return buf.Bytes()
	}

	h := sha256.New()
	forward := make([][sha256.Size]byte, len(units))
	for i, u := range units {
		text := optimize(u, false)
		h.Write(text)
		forward[i] = sha256.Sum256(text)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenOptIRDigest {
		t.Fatalf("corpus order with one shared workspace: digest %s, want %s", got, goldenOptIRDigest)
	}
	// The reverse run writes every unit's text exactly as the forward run
	// did, so its digest in corpus order is golden too.
	for i := len(units) - 1; i >= 0; i-- {
		if sha256.Sum256(optimize(units[i], true)) != forward[i] {
			t.Fatalf("reverse order with one shared workspace: %s variant %d optimizes differently",
				units[i].name, units[i].variant)
		}
	}
}

// TestPassChangedResult holds every pass application of the O2 pipeline
// over the digest corpus to its result: one that reports false must leave
// the function's hashFunc text unchanged. Reporting true without a change
// only costs the caller a wasted round, and the test logs how often each
// pass does it. (Hashing every application under all 12 variants takes
// minutes; O2 runs every pass.)
func TestPassChangedResult(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes every pass application over 208 programs")
	}
	ws := opt.NewWorkspace()
	var buf bytes.Buffer
	digest := func(f *ir.Func) [sha256.Size]byte {
		buf.Reset()
		hashFunc(&buf, f)
		return sha256.Sum256(buf.Bytes())
	}
	apps := map[string]int{}
	idle := map[string]int{} // reported true, changed nothing
	bad := 0
	for _, u := range corpusUnits() {
		if u.o != opt.O2() {
			continue
		}
		funcs, err := buildUnit(u)
		if err != nil {
			continue
		}
		for _, f := range funcs {
			before := digest(f)
			for i, p := range opt.Schedule(u.o) {
				changed := p.Run(ws, f)
				after := digest(f)
				apps[p.Name]++
				switch {
				case !changed && after != before:
					if bad++; bad <= 10 {
						t.Errorf("%s variant %d, func %s: application %d (%s) reported no change but moved the IR",
							u.name, u.variant, f.Name, i, p.Name)
					}
				case changed && after == before:
					idle[p.Name]++
				}
				before = after
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d pass applications reported no change but moved the IR", bad)
	}
	names := make([]string, 0, len(apps))
	for name := range apps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%-14s %6d applications, %4d reported a change that did not happen", name, apps[name], idle[name])
	}
}
