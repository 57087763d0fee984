package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// fullStats populates every Stats field with a distinct value so a
// swapped or missing field in appendStats cannot cancel out.
func fullStats() *Stats {
	return &Stats{
		SessionsActive: 1, SessionsDetached: 2, SessionsOpened: 3, SessionsReaped: 4,
		ConnsActive: 5, ConnsTotal: 6, AuthFailures: 7,
		CacheHits: 8, CacheMisses: 9, CacheEvictions: 10, CacheEntries: 11,
		CacheMemoryBytes: 12, CacheMemoryBudget: 13, CacheShards: 14, AnalysisBytes: 15,
		SpillHits: 16, SpillMisses: 17, SpillWrites: 18, SpillErrors: 19,
		SpillDegraded: true, SpillDegradations: 20, SpillProbes: 21, FlushErrors: 22,
		AnalysesBuilt: 23, CyclesExecuted: -24, Requests: 25, Panics: 26, Timeouts: 27,
		OutputLimits: 28, SROASplits: 41, FieldsClassified: 42,
		CompileWorkers: 31, FuncsCompiled: 32, FuncsReused: 33, CompileMSTotal: 34,
		FuncCacheEntries: 35, FuncCacheBytes: 36, FuncCacheEvictions: 37,
		CoverageSweeps: 38, CoveragePairs: 39,
	}
}

func encodeCorpus() []*Response {
	return []*Response{
		{},
		{OK: true},
		{ID: 1, OK: true},
		{ID: -7, OK: false, Error: &ProtoError{Code: CodeBadRequest, Message: "bad \"thing\""}},
		{ID: 2, OK: true, Artifact: "sha:abc", Cached: true, Funcs: 12,
			FuncsCompiled: 7, FuncsReused: 5, CompileMS: 31},
		{OK: true, Session: "s-01", Handle: "h\u00e9llo"},
		{OK: true, Stop: &StopInfo{Func: "main", Stmt: 0, Line: -1}},
		{OK: true, Exited: true, Output: "1\n2\n3\n"},
		{OK: true, Vars: []VarInfo{
			{Name: "i", State: "current", Display: "i = 4"},
			{Name: "", State: "", Display: ""},
		}},
		{OK: true, Vars: []VarInfo{}}, // empty non-nil slice: omitempty drops it
		// Struct aggregate with nested per-field reports (one level, plus a
		// deeper nesting to exercise the recursion).
		{OK: true, Vars: []VarInfo{
			{Name: "p", State: "noncurrent", Display: `p = {x = 1, y = 2}`, Fields: []VarInfo{
				{Name: "p.x", State: "current", Display: "p.x = 1"},
				{Name: "p.y", State: "noncurrent", Display: "p.y = 2 (WARNING)",
					Fields: []VarInfo{{Name: "deep", State: "current", Display: "deep = 0"}}},
			}},
		}},
		{OK: true, Stats: &Stats{}},
		{OK: true, Stats: fullStats()},
		{OK: true, Coverage: &CoverageInfo{}},
		{OK: true, Artifact: "sha:cov", Coverage: &CoverageInfo{
			CoverageCounts: CoverageCounts{Pairs: 120, Current: 40, Recovered: 50,
				Noncurrent: 20, Suspect: 5, Nonresident: 15, Uninit: 10,
				CurrentPct: "36.36", RecoveredPct: "45.45", NoncurrentPct: "18.18"},
			Funcs: []FuncCoverageInfo{
				{Func: "main", CoverageCounts: CoverageCounts{Pairs: 100, Current: 40,
					CurrentPct: "40.00", RecoveredPct: "0.00", NoncurrentPct: "0.00"}},
				{Func: "h\"0", CoverageCounts: CoverageCounts{Pairs: 20, Uninit: 20,
					CurrentPct: "0.00", RecoveredPct: "0.00", NoncurrentPct: "0.00"}},
			},
		}},
		{ID: 9, OK: true, Results: []Response{
			{ID: 10, OK: true, Stop: &StopInfo{Func: "f", Stmt: 3, Line: 14}},
			{ID: 11, OK: false, Error: &ProtoError{Code: CodeNoSuchVar, Message: "no var <x> & \"y\""}},
			{ID: 12, OK: true, Results: nil},
		}},
		// String escaping: HTML-escaped runes, control bytes, quotes and
		// backslashes, multibyte UTF-8, invalid UTF-8, U+2028/U+2029, DEL
		// (which encoding/json does NOT escape).
		{OK: true, Output: "<script>&amp;</script>"},
		{OK: true, Output: "tab\there\nnl\rcr\x00nul\x1fus\x7fdel"},
		{OK: true, Output: `back\slash "quote"`},
		{OK: true, Output: "\u00fc\u4e16\u754c\U0001f600"},
		{OK: true, Output: "bad\xff\xfebytes\xc3truncated"},
		{OK: true, Output: "line\u2028sep\u2029para"},
		{OK: true, Output: strings.Repeat("x", 3000)},
	}
}

// TestAppendResponseGolden holds the append encoder byte-identical to
// encoding/json over a corpus exercising every Response field and the
// escaping edge cases.
func TestAppendResponseGolden(t *testing.T) {
	for i, r := range encodeCorpus() {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("case %d: json.Marshal: %v", i, err)
		}
		got := appendResponse(nil, r)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: encoding mismatch\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestAppendStringRandom fuzzes appendString against encoding/json with
// random byte strings (often invalid UTF-8) and random rune strings.
func TestAppendStringRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var s string
		if i%2 == 0 {
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			s = string(b)
		} else {
			runes := make([]rune, rng.Intn(32))
			for j := range runes {
				switch rng.Intn(4) {
				case 0:
					runes[j] = rune(rng.Intn(0x80)) // ASCII incl. controls
				case 1:
					runes[j] = rune(0x2020 + rng.Intn(16)) // around U+2028/29
				case 2:
					runes[j] = rune(rng.Intn(0x3000))
				default:
					runes[j] = rune(0x10000 + rng.Intn(0x1000))
				}
			}
			s = string(runes)
		}
		want, err := json.Marshal(&Response{OK: true, Output: s})
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		got := appendResponse(nil, &Response{OK: true, Output: s})
		if !bytes.Equal(got, want) {
			t.Fatalf("string %q:\n got: %s\nwant: %s", s, got, want)
		}
	}
}

// TestServeEncodingModes holds the wire loop to encoding/json: every line
// Serve writes must equal json.Marshal of its own decode plus '\n', the
// line json.Encoder would have written for the same response.
func TestServeEncodingModes(t *testing.T) {
	script := strings.Join([]string{
		`{"id":1,"cmd":"compile","name":"p","src":"int main() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } print s; return s; }"}`,
		`{"id":2,"cmd":"compile","workload":"compress"}`,
		`{"id":3,"cmd":"stats"}`,
		`{"id":4,"cmd":"nope"}`,
		`{"id":5,"cmd":"batch","reqs":[{"id":6,"cmd":"stats"},{"id":7,"cmd":"nope"}]}`,
	}, "\n") + "\n"

	s := New(Options{})
	defer s.Close()
	var out bytes.Buffer
	if err := s.Serve(strings.NewReader(script), &out); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	lines := strings.SplitAfter(out.String(), "\n")
	if last := lines[len(lines)-1]; last != "" {
		t.Fatalf("output does not end in a newline: %q", last)
	}
	lines = lines[:len(lines)-1]
	if len(lines) != 5 {
		t.Fatalf("got %d response lines, want 5:\n%s", len(lines), out.String())
	}
	for i, line := range lines {
		var r Response
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i, err, line)
		}
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatalf("line %d: json.Marshal: %v", i, err)
		}
		if want = append(want, '\n'); line != string(want) {
			t.Errorf("line %d differs from encoding/json\n got: %s\nwant: %s", i, line, want)
		}
	}
}

func BenchmarkEncodeResponse(b *testing.B) {
	resp := &Response{ID: 42, OK: true,
		Stop:   &StopInfo{Func: "inner_loop", Stmt: 7, Line: 123},
		Output: "checkpoint 100000\n"}
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		var sink bytes.Buffer
		for i := 0; i < b.N; i++ {
			sink.Reset()
			if err := json.NewEncoder(&sink).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var sink bytes.Buffer
		for i := 0; i < b.N; i++ {
			sink.Reset()
			if err := writeResponse(&sink, resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
