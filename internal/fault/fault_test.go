package fault

import (
	"errors"
	"testing"
	"time"
)

func TestDisabledIsInert(t *testing.T) {
	Disable()
	if err := Check("any.point"); err != nil {
		t.Fatalf("disabled Check = %v", err)
	}
	data := []byte("payload")
	if got := Cut("any.point", data); string(got) != "payload" {
		t.Fatalf("disabled Cut = %q", got)
	}
	// Set without Enable must not arm anything.
	Set("any.point", Rule{})
	if err := Check("any.point"); err != nil {
		t.Fatalf("Check after disabled Set = %v", err)
	}
}

func TestCheckFiresAndWrapsErrInjected(t *testing.T) {
	Enable(1)
	defer Disable()
	Set("p", Rule{})
	err := Check("p")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Check = %v, want ErrInjected wrap", err)
	}
	if Fired("p") != 1 {
		t.Fatalf("Fired = %d", Fired("p"))
	}
	// Unarmed points stay healthy even while enabled.
	if err := Check("other"); err != nil {
		t.Fatalf("unarmed Check = %v", err)
	}
}

func TestCustomError(t *testing.T) {
	Enable(1)
	defer Disable()
	sentinel := errors.New("disk on fire")
	Set("p", Rule{Err: sentinel})
	if err := Check("p"); !errors.Is(err, sentinel) {
		t.Fatalf("Check = %v, want sentinel", err)
	}
}

func TestAfterAndTimes(t *testing.T) {
	Enable(1)
	defer Disable()
	Set("p", Rule{After: 2, Times: 1})
	for i := 0; i < 2; i++ {
		if err := Check("p"); err != nil {
			t.Fatalf("hit %d inside After window failed: %v", i, err)
		}
	}
	if err := Check("p"); err == nil {
		t.Fatal("hit past After did not fire")
	}
	// Times 1 is spent.
	for i := 0; i < 3; i++ {
		if err := Check("p"); err != nil {
			t.Fatalf("hit past Times fired: %v", err)
		}
	}
	if n := Fired("p"); n != 1 {
		t.Fatalf("Fired = %d, want 1", n)
	}
}

func TestProbIsSeededAndDeterministic(t *testing.T) {
	run := func() (fired int64) {
		Enable(42)
		defer Disable()
		Set("p", Rule{Prob: 0.5})
		for i := 0; i < 100; i++ {
			Check("p")
		}
		return Fired("p")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed fired %d then %d times", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("Prob 0.5 fired %d/100", a)
	}
}

func TestPanicRule(t *testing.T) {
	Enable(1)
	defer Disable()
	Set("p", Rule{Panic: true})
	defer func() {
		r := recover()
		ip, ok := r.(*InjectedPanic)
		if !ok || ip.Point != "p" {
			t.Fatalf("recovered %v, want *InjectedPanic{p}", r)
		}
	}()
	Check("p")
	t.Fatal("Check with Panic rule returned")
}

func TestDelayOnlyStallsAndSucceeds(t *testing.T) {
	Enable(1)
	defer Disable()
	const d = 20 * time.Millisecond
	Set("p", Rule{Delay: d})
	start := time.Now()
	if err := Check("p"); err != nil {
		t.Fatalf("delay-only Check = %v", err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("delay-only Check returned after %v, want >= %v", elapsed, d)
	}
}

func TestCutTruncates(t *testing.T) {
	Enable(1)
	defer Disable()
	data := []byte("0123456789")
	Set("p", Rule{CutTo: 0.3})
	if got := Cut("p", data); len(got) != 3 {
		t.Fatalf("Cut kept %d bytes, want 3", len(got))
	}
	Set("p", Rule{}) // CutTo <= 0 defaults to half
	if got := Cut("p", data); len(got) != 5 {
		t.Fatalf("default Cut kept %d bytes, want 5", len(got))
	}
	Clear("p")
	if got := Cut("p", data); len(got) != len(data) {
		t.Fatalf("cleared Cut kept %d bytes", len(got))
	}
}

func TestClear(t *testing.T) {
	Enable(1)
	defer Disable()
	Set("b.point", Rule{})
	Set("a.point", Rule{})
	Clear("a.point")
	if err := Check("a.point"); err != nil {
		t.Fatalf("cleared point fired: %v", err)
	}
	if err := Check("b.point"); err == nil {
		t.Fatal("remaining point did not fire")
	}
}

// The hot paths carry Check/Cut on every spill read, write, and compiled
// function; these benches are the basis of BENCH_fault.json's
// injector-disabled overhead record.
func BenchmarkCheckDisabled(b *testing.B) {
	Disable()
	for i := 0; i < b.N; i++ {
		if err := Check("store.spill.read"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCutDisabled(b *testing.B) {
	Disable()
	data := make([]byte, 4096)
	for i := 0; i < b.N; i++ {
		if got := Cut("store.spill.partial", data); len(got) != len(data) {
			b.Fatal("cut while disabled")
		}
	}
}
