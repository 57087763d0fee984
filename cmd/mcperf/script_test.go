package main

import (
	"strings"
	"testing"
)

// render generates the first n units of workload name for seed.
func render(t *testing.T, lib *library, name string, seed int64, n int) string {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(lib, n); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(w.unitAt(i).String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestScriptDeterministic(t *testing.T) {
	lib := newLibrary()
	for _, name := range workloadNames {
		a := render(t, lib, name, 7, 40)
		// A fresh library recompiles and reprofiles every artifact.
		b := render(t, newLibrary(), name, 7, 40)
		if a != b {
			t.Errorf("%s: seed 7 gave two different scripts", name)
		}
		if c := render(t, lib, name, 8, 40); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same script", name)
		}
	}
}
