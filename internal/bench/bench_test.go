package bench

import (
	"errors"
	"io/fs"
	"strings"
	"testing"

	"repro/internal/compile"
)

// TestWorkloadsCompile ensures every workload passes the frontend at O0.
func TestWorkloadsCompile(t *testing.T) {
	for _, name := range Names {
		if _, err := CompileWorkload(name, compile.O0()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestWorkloadsRunO0 executes each workload unoptimized and sanity-checks
// its self-reported output.
func TestWorkloadsRunO0(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := CompileWorkload(name, compile.O0())
			if err != nil {
				t.Fatal(err)
			}
			m, err := RunWorkload(res)
			if err != nil {
				t.Fatal(err)
			}
			out := m.Output()
			if !strings.HasPrefix(out, name+":") {
				t.Errorf("output should start with %q: %q", name+":", out)
			}
			t.Logf("%s (%d cycles)", strings.TrimSpace(out), m.Cycles)
		})
	}
}

// TestWorkloadsDifferential is the compiler's torture test: every workload
// must produce identical output at O0, O2-without-regalloc, O2+regalloc,
// and O2+regalloc+scheduling.
func TestWorkloadsDifferential(t *testing.T) {
	cfgs := map[string]compile.Config{
		"O2noRA":    compile.O2NoRegAlloc(),
		"O2RA":      {Opt: compile.O2NoRegAlloc().Opt, RegAlloc: true},
		"O2RAsched": compile.O2(),
	}
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			res0, err := CompileWorkload(name, compile.O0())
			if err != nil {
				t.Fatal(err)
			}
			m0, err := RunWorkload(res0)
			if err != nil {
				t.Fatal(err)
			}
			want := m0.Output()
			for cname, cfg := range cfgs {
				res, err := CompileWorkload(name, cfg)
				if err != nil {
					t.Fatalf("%s: %v", cname, err)
				}
				m, err := RunWorkload(res)
				if err != nil {
					t.Fatalf("%s: %v", cname, err)
				}
				if m.Output() != want {
					t.Errorf("%s output differs:\nO0: %s\n%s: %s", cname, want, cname, m.Output())
				}
			}
		})
	}
}

// TestWorkloadsVerifyThemselves checks the self-verifying workloads report
// success (compress round-trips, gcc does not miscompile).
func TestWorkloadsVerifyThemselves(t *testing.T) {
	res, err := CompileWorkload("compress", compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunWorkload(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Output(), "ok=1") {
		t.Errorf("compress round trip failed: %s", m.Output())
	}
	res, err = CompileWorkload("gcc", compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	m, err = RunWorkload(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(m.Output(), "MISCOMPILE") {
		t.Errorf("gcc workload self-check failed: %s", m.Output())
	}
}

// TestSourceCopiesNothing pins that a workload's source is read once: a
// lookup by name allocates nothing, and an unknown name is an error.
func TestSourceCopiesNothing(t *testing.T) {
	for _, name := range Names {
		if n := testing.AllocsPerRun(20, func() { MustSource(name) }); n != 0 {
			t.Errorf("Source(%q) allocates %v times, want 0", name, n)
		}
	}
	if _, err := Source("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Source of an unknown workload: err = %v, want fs.ErrNotExist", err)
	}
}
