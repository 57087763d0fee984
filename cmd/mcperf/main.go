// Command mcperf is the repository's end-to-end benchmark. It builds
// cmd/mcd, starts the real daemon on a loopback port, drives it with
// closed-loop protocol clients, checks every answer against an
// independent in-process reference, and prints every metric by name with
// its unit. A traced run instead replays the traffic in-process and splits
// each request's time into layers.
//
// mcperf is a module of its own (it imports the repository's packages
// through a replace directive), so the repository's go test ./... does
// not build or run it.
//
// # Usage
//
// From the repository root, with everything built and written under
// .bench_build/:
//
//	bash cmd/mcperf/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
//
// or from this directory:
//
//	go run . -workload churn -seed 2 -trace 1
//	go run . -workload compile -seed 1 -record parent.jsonl
//	go run . -compare parent.jsonl change.jsonl
//	go test .
//
// Flags: -workload, -seed (the same seed gives the same requests), -seconds
// (the measured phase's length, 10 by default: a round of units starts
// only if at least half of it is expected to fall within it, and the
// script holds as many units as the reference speed completes in that
// time), -trace 0|1,
// -record file (append the run's full record), -spans file (the traced
// replay's spans as JSON lines, by default
// .bench_build/mcperf/trace-<workload>.jsonl), -root, -out.
//
// The last line of standard output is one JSON object: correct, attempted
// (requests sent), failed, and metrics — the end-to-end metrics below, or
// with -trace 1 the per-layer metrics. The lines before it are the human
// report: every metric with its sample count, the per-class metrics and,
// when traced, the per-layer table. Standard error says how long each
// phase took. mcperf exits 1 when any check failed.
//
// # How a run works
//
// The seed generates the script: a sequence of units (an interactive
// session, a harness visit, a compile iteration, a churn revisit), each a
// pure function of the seed and its index, in rounds that cover the
// workload's artifacts once each. Breakpoints are drawn from
// statements the current compiler gives a code location, chosen by
// profiling each artifact in-process; the compile workload's programs are
// randprog programs the pipeline accepts. The report prints a digest of
// those choices. Then the daemon is started and warmed up three times
// (compile every artifact, open and close a session on it); setup_s is the
// median time from exec to warm. The last daemon is measured: each
// connection is a closed loop that sends one request, reads the answer,
// and only then sends the next, as mcdbg, the oracle and loadgen do.
// Latency is timed from the write to the last byte of the answer. The
// measured phase runs whole rounds of the script, a first one always and
// each further one only if, at the pace of the rounds so far, at least
// half of it falls within -seconds; so a run takes about the same time on
// a slow machine and every run sees the same mix of artifacts.
//
// The machine's speed drifts. On the two-vCPU virtual machine of the
// baseline, each vCPU switches every second or so between two speeds, one
// about 1.6 times the other, independently of the other vCPU, and the
// machine's speed over a run varied by a factor of two from run to run.
// So the measured phase runs in epochs of about 150 ms. Between two
// epochs, with no request in flight and every connection waiting to send
// its next one, mcperf times a fixed piece of work, the calibration kernel
// (JSON, allocation, maps, a sort and hashing, from the standard library
// alone), on every CPU at once, each on a thread pinned to its CPU, and
// reads each CPU's busy ticks from /proc/stat. A time measured in an
// epoch is scaled by calibRef over the kernel's time on each CPU, averaged
// over the epoch's two ends and weighted by how busy each CPU was in the
// epoch. Every end-to-end time is so converted to the reference speed, at
// which the kernel takes calibRef (about the baseline machine's median),
// and keeps its unit; set-ups are scaled the same way. Over ten seeds this
// cut the spread of the timings between quartiles from 9-24% to 3-8% in a
// draft that printed both; in the baseline's final sets the timings spread
// by less than 7%, harness's by 9-13% (baseline.md).
//
// After the measured phase the daemon is stopped and the correctness gate
// runs; any failure counts in failed and makes mcperf exit 1:
//
//   - every unit's canonical transcript (stops and variables in the
//     loadgen.CanonStop/CanonVar form, outputs, coverage rows) must be
//     byte-identical to the same unit run on in-process pkg/minic
//     sessions; this covers coverage payloads against coverage.Sweep;
//   - every program output at exit must equal the IR interpreter's run of
//     the program's O0 IR;
//   - every one-function edit must answer funcs_compiled == 1;
//   - an error answer or a broken connection is a failure.
//
// # Workloads
//
// interactive — two connections; sessions on the eight SPEC-analog
// workloads at O2 and the BenchmarkServeContinue loop. Each session
// compiles (a cache hit), opens, breaks at a seeded hot statement, runs
// 180 to 220 seeded actions (continue 60%, step 15%, info 15%, print
// 10%) and closes. This is the person at a debugger: per-request work is
// tiny, so the wire, decode, dispatch and session lookup dominate, and no
// compile layer runs.
//
// harness — one connection, as the oracle's remote check drives a daemon;
// the 16 artifacts of the eight workloads at O2 and O2 without register
// allocation, in a fresh order each round. A visit compiles (a hit),
// sends coverage, opens, arms three seeded statements that together stop
// 30 to 60 times (each at most 2000 instructions between its stops on
// average), sends info at the first 24 stops and runs to exit.
// Long continues make the VM the largest layer, coverage loads the
// classifier in bulk, and a change that helps classification here but
// hurts it in interactive shows on both.
//
// compile — one connection, daemon run with one compile worker (so layer
// times add up and a per-function saving shows in full). Each iteration
// cold-compiles a fresh randprog program, then appends one function three
// times (the BenchmarkCompileIncrementalEdit pattern); after each compile
// it opens a session, steps, sends info and closes. Cold compiles load
// opt, lower, regalloc and sched; edits load the front end, function keys
// and the function cache's stitching; the wire and the VM are negligible.
//
// churn — one connection; 24 artifacts (the eight workloads at O0, O1 and
// O2) revisited in seeded order under a -mem-budget that holds about a
// third of them, with -spill-dir set. A revisit compiles, opens, breaks at
// an early statement, continues, sends info and closes. Evictions write
// spill files and revisits read them back (decode, sha256 check,
// front-end replay, lazy analyses), the disk tier interactive and harness
// never touch.
//
// # End-to-end metrics
//
// Every workload reports every one of these; the bound is the share of the
// parent's median by which a metric may get worse before a change counts
// as a regression (BENCHMARK.json fixes the same numbers).
//
//	metric            unit  better  bound  what
//	setup_s           s     lower   0.25   median over set-ups of exec to warm
//	requests_per_s    1/s   higher  0.25   requests answered per second
//	peak_rss_mb       MB    lower   0.25   the daemon's VmHWM after the run
//	unit_ms_mean      ms    lower   0.25   a session, visit, iteration or churn reopen
//	stop_us_gmean     us    lower   0.25   continue and step, geometric mean
//	inspect_us_gmean  us    lower   0.25   info and print, geometric mean
//
// Times are at the reference speed. A unit's time is the sum of its
// requests' round trips (the client's own work between them is not in
// it); a churn reopen's runs from the compile to the info, leaving out the
// close. Stops and inspections are summarized
// by their geometric mean because a workload's requests of one class
// differ in size by orders of magnitude: a harness visit's continues are
// short hops between breakpoints plus the long run to the first stop and
// the run to exit; a compile iteration's step now and then waits a
// millisecond behind the compile's garbage, and those few dominate a
// plain mean. The geometric mean moves with every request by its ratio,
// so neither the exact mix nor a rare outlier swings it. Every bound is
// 0.25, the largest the benchmark contract allows: over ten seeds the
// timings of one workload spread by up to 7% between quartiles, harness's
// by up to 13%, and a bound must be about three times the spread to keep a
// verdict from being noise (baseline.md).
//
// The report and the -record file (for -compare) also carry, per request
// class the workload issues: failed_frac, unit_ms_p50/p90, stop_us and
// inspect_us p50/p90/p99, compile_us_p50/p90, open_us_p50,
// coverage_us_p50/p90 (harness), compile_cold_ms_p50/p90 and
// compile_edit_ms_p50/p90 (compile), reopen_ms_p50/p90 (churn). They have
// no bound. A percentile is reported only with at least ten samples
// beyond it, and is otherwise named as refused with its sample count.
//
// # The per-layer table
//
// A traced run (-trace 1) starts no daemon. It replays the script's first
// units on in-process servers, each served over loopback TCP with the
// server's end of the connection instrumented: the time from the read that
// brings a request's line to the write that completes its answer is
// server.serve, taken on Serve's goroutine, next to the client's round
// trip of the same request. Beside the traced server a shadow stack, built
// from the same public constructors (store, compile, core, debugger,
// coverage), makes the calls the handler makes for that request, in the
// same order, each in a span; the program itself is not instrumented. A
// replay runs untraced alone first (heap and GC numbers, and the unit
// count: as many units as fit in two seconds, and at least one round),
// then an untraced and a traced server run those units in lockstep, and
// trace.overhead_frac is the traced server.serve total over the untraced
// one, minus one. Every replayed unit passes the correctness gate.
//
// Each row is a layer's self time (its span's time not covered by child
// spans; overlapping children split the time they share) over the traced
// replay, with its call count, time per call and share of the total. The
// total is the client's round trips of the replayed requests. Three rows
// are residuals, so the rows add up to the total exactly:
//
//   - wire: the round trips minus server.serve of the same requests — the
//     loopback round trip, scheduling and the client. In-process it is
//     smaller than across processes: compare stop_us_gmean;
//   - server.other: server.serve minus decode minus the library calls —
//     dispatch, the session table, building and encoding the answer;
//   - funccache.stitch: a pipeline compile minus its front end, function
//     keys and per-function back ends, which the shadow re-measures on the
//     same source after the compile — the function cache's encoding,
//     decoding and stitching.
//
// server.other and funccache.stitch come out slightly negative when the
// shadow's call ran slower than the server's (on harness, where a
// continue is nearly all VM, by a few percent). Counts (server.requests,
// store.hit_ratio — lookups served from memory —, store.evictions,
// store.spill.reads/writes, backend.funcs, coverage.pairs,
// funccache.reuse_ratio) are the traced server's stats deltas over the
// replay; core.analyses_built, core.vars_classified and vm.instrs are
// counted by the shadow; heap.* and gc.cpu_frac come from the untraced
// replay and include the replay's client, which is the same code on both
// sides of a comparison. Per-layer times are not scaled to the reference
// speed. baseline.md lists the end-to-end metric each per-layer metric
// should move, and on which workload.
//
// # Comparing
//
// mcperf -compare parent.jsonl change.jsonl reads two -record files (runs
// of each side, ideally ten or more, alternating sides) and prints, for
// each workload and metric, each side's median and quartiles, how many
// pairs the change won, and a verdict: improved when the change wins at
// least nine tenths of at least ten pairs and the medians differ by more
// than the parent's quartile spread; for an end-to-end metric unresolved
// when that spread is wider than the bound (unless every change run beats
// every parent run), regressed when the change's median is worse by more
// than the bound, and unchanged otherwise. Metrics without a bound
// (per-class and per-layer) are improved, worsened or unresolved.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "mcperf:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workload := flag.String("workload", "interactive", "workload to run: interactive, harness, compile or churn")
	seed := flag.Int64("seed", 1, "script seed; the same seed gives the same requests")
	seconds := flag.Float64("seconds", 12, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: also replay the script in-process with spans and print the per-layer metrics")
	root := flag.String("root", "", "repository root (default: found from the working directory)")
	outDir := flag.String("out", "", "directory for builds, spill files and traces (default <root>/.bench_build/mcperf)")
	spans := flag.String("spans", "", "write the traced replay's spans as JSON lines here (default <out>/trace-<workload>.jsonl)")
	recordPath := flag.String("record", "", "append this run's full record (every metric) to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two -record files: mcperf -compare parent.jsonl change.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("usage: mcperf -compare parent.jsonl change.jsonl")
		}
		a, err := readRecords(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readRecords(flag.Arg(1))
		if err != nil {
			return err
		}
		compareRecords(a, b, os.Stdout)
		return nil
	}

	if *root == "" {
		r, err := findRoot()
		if err != nil {
			return err
		}
		*root = r
	}
	if *outDir == "" {
		*outDir = filepath.Join(*root, ".bench_build", "mcperf")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	// A traced run replays in-process and needs no daemon binary.
	var bin string
	if *trace == 0 {
		b, err := buildMCD(*root, filepath.Join(*outDir, "bin"))
		if err != nil {
			return err
		}
		bin = b
	}
	if *trace != 0 && *spans == "" {
		*spans = filepath.Join(*outDir, "trace-"+*workload+".jsonl")
	}
	out, err := runWorkload(runOpts{
		workload:     *workload,
		seed:         *seed,
		seconds:      *seconds,
		trace:        *trace != 0,
		setups:       3,
		outDir:       *outDir,
		spans:        *spans,
		replayBudget: 2 * time.Second,
		start:        func(args []string) (daemon, error) { return startDaemon(bin, args) },
		log:          os.Stderr,
	})
	if err != nil {
		return err
	}
	fmt.Print(out.report)
	if out.layers != "" {
		fmt.Print(out.layers)
	}
	for i, f := range out.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "mcperf: ... and %d more failures\n", len(out.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "mcperf: FAIL", f)
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, out.rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.res.Correct {
		os.Exit(1)
	}
	return nil
}

// findRoot walks up from the working directory to the repository root,
// the directory holding cmd/mcd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "mcd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory with cmd/mcd) above the working directory; pass -root")
		}
		dir = parent
	}
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
