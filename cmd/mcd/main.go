// mcd is the debug-session daemon: a long-lived service speaking a
// line-delimited JSON protocol, serving any number of concurrent debug
// sessions over a shared compiled-artifact store. By default it serves
// one connection on stdin/stdout (handy for scripting and tests); with
// -listen or -unix it accepts many concurrent connections that share the
// artifact store and session table.
//
// Usage:
//
//	mcd [flags]
//
// Flags:
//
//	-listen addr     also serve TCP connections on addr (e.g. :7070)
//	-unix path       also serve connections on a unix socket
//	-auth-token tok  require this shared secret before serving anything
//	                 but stats (clients auth once or per request)
//	-drain-timeout d how long shutdown waits for in-flight requests
//	-cache n         artifact store size in artifacts (default 32)
//	-shards n        artifact store shard count (default 8)
//	-mem-budget n    artifact + analysis memory budget in bytes (0 = unbounded);
//	                 the per-function compile cache gets a quarter of it,
//	                 or 2 MiB when it is unbounded
//	-spill-dir path  spill evicted artifacts to this directory and reload
//	                 them on miss, so restarts keep the warm set
//	-max-sessions n  concurrent session limit (default 64)
//	-session-ttl d   reap sessions idle longer than d, e.g. 30m (0 = never)
//	-budget n        per-session execution budget in instructions
//	-workers n       analysis precompute worker pool (default GOMAXPROCS)
//	-request-timeout d
//	                 cut off a continue/step running longer than d with a
//	                 typed "timeout" error; the session survives at the
//	                 instruction boundary where the cutoff landed (0 = never)
//	-output-limit n  per-session program-output cap in bytes; a session
//	                 printing past it gets a typed "output-limit" error
//	                 (0 = the VM default, negative = unlimited)
//	-pprof addr      serve net/http/pprof on addr (e.g. localhost:6060)
//	                 for live CPU/heap profiling of the daemon
//
// Every connection owns the sessions it opens: open-session returns an
// unguessable session id plus a secret handle, other connections'
// commands on it are denied, and a dropped connection leaves its
// sessions detached until a client presents the handle (attach) or the
// -session-ttl reaper collects them.
//
// On stdin EOF, SIGINT or SIGTERM the daemon stops accepting, drains
// in-flight requests, and flushes the resident artifact set to the spill
// directory (when configured) before exiting.
//
// Protocol example (one request per line, one response per line):
//
//	{"id":1,"cmd":"compile","workload":"compress"}
//	{"id":2,"cmd":"open-session","artifact":"<id from 1>"}
//	{"id":3,"cmd":"break","session":"s1","func":"compress","stmt":6}
//	{"id":4,"cmd":"continue","session":"s1"}
//	{"id":5,"cmd":"print","session":"s1","var":"w"}
//	{"id":6,"cmd":"stats"}
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/server"
)

func main() {
	listen := flag.String("listen", "", "serve TCP connections on this address")
	unix := flag.String("unix", "", "serve connections on this unix socket path")
	authToken := flag.String("auth-token", "", "shared secret required before serving anything but stats")
	drainTimeout := flag.Duration("drain-timeout", server.DefaultDrainTimeout, "how long shutdown waits for in-flight requests")
	cache := flag.Int("cache", server.DefaultCacheSize, "artifact store size (artifacts)")
	shards := flag.Int("shards", server.DefaultShards, "artifact store shard count")
	memBudget := flag.Int64("mem-budget", 0, "artifact + analysis memory budget in bytes (0 = unbounded); the per-function compile cache gets a quarter, or 2 MiB when unbounded")
	spillDir := flag.String("spill-dir", "", "spill evicted artifacts to this directory (empty = memory-only)")
	maxSess := flag.Int("max-sessions", server.DefaultMaxSessions, "concurrent session limit")
	sessionTTL := flag.Duration("session-ttl", 0, "reap sessions idle longer than this (0 = never)")
	budget := flag.Int64("budget", server.DefaultStepBudget, "per-session execution budget (instructions)")
	workers := flag.Int("workers", 0, "analysis worker pool size (0 = GOMAXPROCS)")
	compileWorkers := flag.Int("compile-workers", 0, "per-function compile worker pool size (0 = GOMAXPROCS)")
	requestTimeout := flag.Duration("request-timeout", 0, "wall-clock bound on one continue/step command (0 = unbounded)")
	outputLimit := flag.Int64("output-limit", 0, "per-session program-output cap in bytes (0 = default, negative = unlimited)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	if *pprofAddr != "" {
		// The pprof import wires the profiling handlers into
		// http.DefaultServeMux; this listener exposes only those.
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mcd: pprof on http://%s/debug/pprof/\n", pl.Addr())
		go func() {
			if err := http.Serve(pl, nil); err != nil {
				fmt.Fprintf(os.Stderr, "mcd: pprof server: %v\n", err)
			}
		}()
	}

	s := server.New(server.Options{
		AuthToken:       *authToken,
		DrainTimeout:    *drainTimeout,
		CacheSize:       *cache,
		Shards:          *shards,
		MemoryBudget:    *memBudget,
		SpillDir:        *spillDir,
		MaxSessions:     *maxSess,
		SessionTTL:      *sessionTTL,
		StepBudget:      *budget,
		AnalysisWorkers: *workers,
		CompileWorkers:  *compileWorkers,
		RequestTimeout:  *requestTimeout,
		OutputLimit:     *outputLimit,
	})

	// Flush the warm set on SIGINT/SIGTERM so a restarted daemon with the
	// same -spill-dir serves it from disk.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		s.Close()
		os.Exit(0)
	}()

	exit := func(code int) {
		s.Close()
		os.Exit(code)
	}

	errc := make(chan error, 2)
	serving := false
	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "mcd: listening on %s\n", l.Addr())
		serving = true
		go func() { errc <- s.ListenAndServe(l) }()
	}
	if *unix != "" {
		l, err := net.Listen("unix", *unix)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "mcd: listening on unix socket %s\n", *unix)
		serving = true
		go func() { errc <- s.ListenAndServe(l) }()
	}

	if !serving {
		if err := s.Serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		exit(0)
	}
	// Listeners only: stdin still drives a session stream if piped, else
	// block on the listeners.
	st, _ := os.Stdin.Stat()
	if st != nil && (st.Mode()&os.ModeCharDevice) == 0 {
		if err := s.Serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		exit(0)
	}
	if err := <-errc; err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	exit(0)
}
