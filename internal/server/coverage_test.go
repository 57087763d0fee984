package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/coverage"
)

const covSrc = `int helper(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + i * i;
	}
	return acc;
}
int main() {
	int a = 3;
	int b = helper(a);
	int dead = a + 5;
	a = b - a;
	print(a);
	return a;
}`

// TestCoverageCommandGolden is the golden mcd transcript for the
// coverage command: a scripted wire connection compiles a program and
// sweeps it twice, and the test requires (1) the two coverage response
// lines byte-identical (the sweep is deterministic), (2) the payload
// byte-identical to the library-side sweep of the same source and
// configuration routed through encoding/json, and (3) the stats
// counters accounting for exactly the two sweeps.
func TestCoverageCommandGolden(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	// The library-side reference: same source, same default config the
	// server resolves for a request without a ConfigSpec.
	cfg, err := configOf(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.Compile("cov.mc", covSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := coverage.Sweep(res, core.NewAnalysisSet())
	wantJSON, err := json.Marshal(coverageInfoOf(rep))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Pairs == 0 || len(rep.Funcs) != 2 {
		t.Fatalf("reference sweep is degenerate: %+v", rep.Total)
	}

	// Compile over the wire to learn the artifact id.
	srcJSON, _ := json.Marshal(covSrc)
	var out bytes.Buffer
	script := fmt.Sprintf(`{"id":1,"cmd":"compile","name":"cov.mc","src":%s}`+"\n", srcJSON)
	if err := s.Serve(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	var compResp Response
	if err := json.Unmarshal(out.Bytes(), &compResp); err != nil || !compResp.OK {
		t.Fatalf("compile failed: %v %+v", err, compResp.Error)
	}

	// Two coverage sweeps plus a stats read, on a fresh connection.
	out.Reset()
	script = fmt.Sprintf(
		`{"id":2,"cmd":"coverage","artifact":%q}`+"\n"+
			`{"id":3,"cmd":"coverage","artifact":%q}`+"\n"+
			`{"id":4,"cmd":"coverage","artifact":"nope"}`+"\n"+
			`{"id":5,"cmd":"batch","reqs":[{"id":6,"cmd":"coverage","artifact":%q}]}`+"\n"+
			`{"id":7,"cmd":"stats"}`+"\n",
		compResp.Artifact, compResp.Artifact, compResp.Artifact)
	if err := s.Serve(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 response lines, got %d:\n%s", len(lines), out.String())
	}

	// (1) Determinism: byte-identical sweeps modulo the echoed id.
	l2 := strings.Replace(lines[0], `"id":2`, `"id":3`, 1)
	if l2 != lines[1] {
		t.Errorf("repeated coverage sweeps differ:\n%s\n%s", lines[0], lines[1])
	}

	// (2) The wire payload is the library-side sweep, byte for byte: Serve
	// encodes through encoding/json too, so substring equality over the
	// json.Marshal form pins the whole chain.
	wantField := `"coverage":` + string(wantJSON)
	if !strings.Contains(lines[0], wantField) {
		t.Errorf("coverage payload differs from library-side sweep\n line: %s\n want: %s", lines[0], wantField)
	}
	if !strings.Contains(lines[3], wantField) {
		t.Errorf("batched coverage payload differs from library-side sweep\n line: %s", lines[3])
	}

	// Unknown artifacts answer no-such-artifact without counting a sweep.
	var errRespLine Response
	if err := json.Unmarshal([]byte(lines[2]), &errRespLine); err != nil {
		t.Fatal(err)
	}
	if errRespLine.OK || errRespLine.Error == nil || errRespLine.Error.Code != CodeNoSuchArtifact {
		t.Errorf("coverage of unknown artifact: got %s", lines[2])
	}

	// (3) Stats: three successful sweeps (two direct + one batched), each
	// accounting the artifact's pair total.
	var statsResp Response
	if err := json.Unmarshal([]byte(lines[4]), &statsResp); err != nil {
		t.Fatal(err)
	}
	if statsResp.Stats == nil {
		t.Fatal("stats response carries no stats")
	}
	if got := statsResp.Stats.CoverageSweeps; got != 3 {
		t.Errorf("coverage_sweeps = %d, want 3", got)
	}
	if got, want := statsResp.Stats.CoveragePairs, int64(3*rep.Total.Pairs); got != want {
		t.Errorf("coverage_pairs = %d, want %d", got, want)
	}
}
