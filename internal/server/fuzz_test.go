package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// fuzzLines is the reader side of one fuzzed connection. It hands Serve
// one line per Read, so every earlier line has been answered before the
// next is read, and fills the placeholders $A, $S and $H in a line with
// the artifact, session and handle of the latest response that carried
// one (artifact and session ids are not known before the server picks
// them). sent keeps each line as Serve read it.
type fuzzLines struct {
	lines []string
	out   *bytes.Buffer
	sent  []string

	pending           string // the rest of a line longer than one Read
	parsed            int    // bytes of out already scanned
	art, sess, handle string
	sessions          []string // every session id seen, in order
	seen              map[string]bool
}

func (r *fuzzLines) Read(p []byte) (int, error) {
	if r.pending == "" {
		if len(r.lines) == 0 {
			return 0, io.EOF
		}
		r.scan()
		line := strings.NewReplacer("$A", r.art, "$S", r.sess, "$H", r.handle).Replace(r.lines[0])
		r.lines = r.lines[1:]
		r.sent = append(r.sent, line)
		r.pending = line + "\n"
	}
	n := copy(p, r.pending)
	r.pending = r.pending[n:]
	return n, nil
}

// scan records the ids of the responses written since the last call.
func (r *fuzzLines) scan() {
	for {
		rest := r.out.Bytes()[r.parsed:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return
		}
		r.parsed += nl + 1
		var resp Response
		if json.Unmarshal(rest[:nl], &resp) != nil {
			continue
		}
		r.note(&resp)
		for i := range resp.Results {
			r.note(&resp.Results[i])
		}
	}
}

func (r *fuzzLines) note(resp *Response) {
	if resp.Artifact != "" {
		r.art = resp.Artifact
	}
	if resp.Session != "" {
		r.sess = resp.Session
		if !r.seen[resp.Session] {
			r.seen[resp.Session] = true
			r.sessions = append(r.sessions, resp.Session)
		}
	}
	if resp.Handle != "" {
		r.handle = resp.Handle
	}
}

// fuzzSeeds are request transcripts for FuzzServe, one request per line.
func fuzzSeeds() []string {
	stmt := 1
	line := func(reqs ...Request) string {
		var sb strings.Builder
		for _, q := range reqs {
			b, err := json.Marshal(q)
			if err != nil {
				panic(err)
			}
			sb.Write(b)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	session := []Request{
		{ID: 1, Cmd: "compile", Name: "t.mc", Src: testProg},
		{ID: 2, Cmd: "open-session", Artifact: "$A"},
		{ID: 3, Cmd: "break", Session: "$S", Func: "main", Stmt: &stmt},
		{ID: 4, Cmd: "continue", Session: "$S"},
		{ID: 5, Cmd: "print", Session: "$S", Var: "x"},
		{ID: 6, Cmd: "info", Session: "$S"},
		{ID: 7, Cmd: "where", Session: "$S"},
		{ID: 8, Cmd: "step", Session: "$S"},
		{ID: 9, Cmd: "close", Session: "$S"},
	}
	return []string{
		line(session...),
		line(
			Request{ID: 1, Cmd: "compile", Workload: "compress", Config: &ConfigSpec{Opt: "O1"}},
			Request{ID: 2, Cmd: "open-session", Artifact: "$A"},
			Request{ID: 3, Cmd: "break", Session: "$S", Line: 41},
			Request{ID: 4, Cmd: "continue", Session: "$S"},
			Request{ID: 5, Cmd: "detach", Session: "$S"},
			Request{ID: 6, Cmd: "attach", Session: "$S", Handle: "$H"},
			Request{ID: 7, Cmd: "batch", Reqs: []Request{
				{Cmd: "where", Session: "$S"},
				{Cmd: "print", Session: "$S", Var: "phrase"},
			}},
			Request{ID: 8, Cmd: "continue", Session: "$S"},
			Request{ID: 9, Cmd: "coverage", Artifact: "$A"},
			Request{ID: 10, Cmd: "stats"},
		),
		line(session[0], session[1]) + "{\"id\":3,\"cmd\":\n\r\n{}\n" + line(Request{ID: -4, Cmd: "close", Session: "$S"}),
	}
}

// FuzzServe runs Serve over fuzzed request lines with a small step budget
// and checks three properties: it never panics, not even in a handler
// (where the server would contain it); it answers exactly one response
// per non-empty line, echoing the line's id (0 for a line that is not a
// request); and a second connection, knowing every session id the first
// one saw but no handle, reaches none of those sessions.
func FuzzServe(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		s := New(Options{StepBudget: 50_000, MaxSessions: 4, AnalysisWorkers: 1, CompileWorkers: 1})
		defer s.Close()

		var out bytes.Buffer
		r := &fuzzLines{lines: strings.Split(input, "\n"), out: &out, seen: map[string]bool{}}
		if err := s.Serve(r, &out); err != nil {
			t.Fatalf("serve: %v", err)
		}
		r.scan()
		var want []int64
		for _, l := range r.sent {
			// The line as bufio.ScanLines delivers it.
			if l = strings.TrimSuffix(l, "\r"); l == "" {
				continue
			}
			var req Request
			if json.Unmarshal([]byte(l), &req) != nil {
				req.ID = 0
			}
			want = append(want, req.ID)
		}
		got := responseIDs(t, out.Bytes())
		if len(got) != len(want) {
			t.Fatalf("%d responses to %d non-empty lines:\n%s", len(got), len(want), out.Bytes())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("response %d has id %d, want %d", i, got[i], want[i])
			}
		}

		// A second connection with every session id but no handle.
		stmt := 0
		var probe bytes.Buffer
		for _, id := range r.sessions {
			for _, q := range []Request{
				{Cmd: "continue", Session: id},
				{Cmd: "step", Session: id},
				{Cmd: "where", Session: id},
				{Cmd: "info", Session: id},
				{Cmd: "print", Session: id, Var: "x"},
				{Cmd: "break", Session: id, Func: "main", Stmt: &stmt},
				{Cmd: "detach", Session: id},
				{Cmd: "close", Session: id},
				{Cmd: "attach", Session: id},
				{Cmd: "batch", Reqs: []Request{{Cmd: "where", Session: id}}},
			} {
				b, _ := json.Marshal(q)
				probe.Write(b)
				probe.WriteByte('\n')
			}
		}
		var out2 bytes.Buffer
		if err := s.Serve(&probe, &out2); err != nil {
			t.Fatalf("second connection: %v", err)
		}
		sc := bufio.NewScanner(&out2)
		sc.Buffer(nil, MaxLine)
		for sc.Scan() {
			var resp Response
			if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
				t.Fatalf("second connection: bad response %q: %v", sc.Bytes(), err)
			}
			results := []Response{resp}
			if resp.OK && resp.Results != nil {
				results = resp.Results
			}
			for _, q := range results {
				if q.OK || q.Error == nil || (q.Error.Code != CodeNotOwner && q.Error.Code != CodeNoSuchSession && q.Error.Code != CodeBadRequest) {
					t.Fatalf("second connection reached a session it did not open: %s", sc.Bytes())
				}
			}
		}

		if n := s.Snapshot().Panics; n != 0 {
			t.Fatalf("%d handler panics:\n%s", n, out.Bytes())
		}
	})
}

// responseIDs decodes one response per line of out.
func responseIDs(t *testing.T, out []byte) []int64 {
	t.Helper()
	var ids []int64
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, MaxLine)
	for sc.Scan() {
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatalf("response %q is not JSON: %v", sc.Bytes(), err)
		}
		ids = append(ids, resp.ID)
	}
	return ids
}
