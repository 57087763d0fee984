// Package loadgen is the scripted-client load generator shared by the
// chaos soak and the differential oracle: deterministic debug-session
// scripts driven against a live daemon through the public client, with
// canonical byte-comparable transcripts. A transcript line carries only
// semantic, deterministic content — content-addressed artifact ids, stop
// positions, classified variables, program output — never session ids,
// cache flags, or timings, so any two runs of the same script against
// correct servers must produce identical bytes. That is the whole
// contract: the chaos soak compares faulted runs against a fault-free
// reference, and the oracle soak compares a live daemon against an
// in-process ground-truth session.
package loadgen

import (
	"fmt"
	"strings"

	"repro/pkg/minic"
)

// Program is one scripted debug interaction: compile src under name,
// open a session, set a breakpoint, run to it, inspect, run to exit,
// close. Name feeds the artifact's content address, so distinct names
// give distinct artifacts over identical source — the soak uses that to
// churn a small store without perturbing any payload.
type Program struct {
	Name      string
	Src       string
	BreakFunc string
	BreakStmt int
	Prints    []string
}

// DefaultProgram is the soak's workload: a compute loop (so continues
// execute a deterministic, nontrivial cycle count), a breakpoint in
// main with locals live to classify, and printed output to compare.
func DefaultProgram(name string) Program {
	return Program{
		Name:      name,
		Src:       defaultSrc,
		BreakFunc: "main",
		BreakStmt: 1,
		Prints:    []string{"t"},
	}
}

const defaultSrc = `
int work(int n) {
	int s = 0;
	int i = 0;
	while (i < n) {
		s = s + i * i;
		i = i + 1;
	}
	return s;
}

int main() {
	int t = work(200);
	print(t);
	return t;
}
`

// RunIteration drives one full iteration of p against c and returns the
// canonical transcript of the steps that succeeded, in step order. A
// step failure aborts the iteration (the session, if opened, is closed
// best-effort) and returns the partial transcript plus the error; the
// transcript's entries are still valid for byte-comparison against a
// reference run, because every canonical line carries only semantic,
// deterministic content.
func RunIteration(c *minic.Client, p Program) (transcript []string, err error) {
	art, err := c.Compile(p.Name, p.Src)
	if err != nil {
		return transcript, fmt.Errorf("compile: %w", err)
	}
	transcript = append(transcript, fmt.Sprintf("compile artifact=%s funcs=%d", art.ID, art.Funcs))

	sess, err := c.Open(art.ID)
	if err != nil {
		return transcript, fmt.Errorf("open: %w", err)
	}
	defer func() {
		if err != nil {
			sess.Close() // best-effort; the daemon reaps leaks eventually
		}
	}()
	transcript = append(transcript, fmt.Sprintf("open artifact=%s", art.ID))

	stop, err := sess.BreakAtStmt(p.BreakFunc, p.BreakStmt)
	if err != nil {
		return transcript, fmt.Errorf("break: %w", err)
	}
	transcript = append(transcript, "break "+CanonStop(stop, false, ""))

	stop, out, err := sess.Continue()
	if err != nil {
		return transcript, fmt.Errorf("continue1: %w", err)
	}
	transcript = append(transcript, "continue1 "+CanonStop(stop, stop == nil, out))

	for _, name := range p.Prints {
		v, err := sess.Print(name)
		if err != nil {
			return transcript, fmt.Errorf("print %s: %w", name, err)
		}
		transcript = append(transcript, "print "+CanonVar(v))
	}

	vars, err := sess.Info()
	if err != nil {
		return transcript, fmt.Errorf("info: %w", err)
	}
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = CanonVar(v)
	}
	transcript = append(transcript, "info "+strings.Join(parts, "; "))

	stop, out, err = sess.Continue()
	if err != nil {
		return transcript, fmt.Errorf("continue2: %w", err)
	}
	transcript = append(transcript, "continue2 "+CanonStop(stop, stop == nil, out))

	out, err = sess.Close()
	if err != nil {
		return transcript, fmt.Errorf("close: %w", err)
	}
	transcript = append(transcript, fmt.Sprintf("close output=%q", out))
	return transcript, nil
}

// CanonStop renders a remote stop (or exit) in canonical transcript form.
func CanonStop(stop *minic.RemoteStop, exited bool, output string) string {
	if stop == nil {
		return fmt.Sprintf("exited=%v output=%q", exited, output)
	}
	return fmt.Sprintf("stop=%s:%d:%d", stop.Func, stop.Stmt, stop.Line)
}

// CanonVar renders a remote variable report in canonical transcript form.
func CanonVar(v minic.RemoteVar) string {
	return fmt.Sprintf("%s=%s:%q", v.Name, v.State, v.Display)
}
