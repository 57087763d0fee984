package oracle

import (
	"net"
	"testing"

	"repro/internal/server"
	"repro/pkg/minic"
)

// startDaemon serves a new daemon on a loopback listener and dials it.
func startDaemon(t *testing.T, opts server.Options) (*server.Server, *minic.Client) {
	t.Helper()
	s := server.New(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	go s.ListenAndServe(l) //nolint:errcheck // exits when the listener closes
	c, err := minic.Dial("tcp", l.Addr().String())
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s, c
}

// TestCheckRemote runs the remote half of the oracle against a live
// in-process daemon: for every seed and configuration the daemon's
// session transcript (stops, classified variables, output) and its
// coverage command must be byte-identical to the in-process ground
// truth. This is the check that sees through the daemon's artifact
// store, incremental function cache, and wire encoding.
func TestCheckRemote(t *testing.T) {
	s, c := startDaemon(t, server.Options{})
	defer s.Close()
	defer c.Close()

	res, err := CheckRemote(c, RemoteOptions{Seeds: []int64{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Mismatches {
		t.Errorf("remote mismatch: %s", m)
	}
	// A vacuously green run proves nothing: require real volume.
	if res.LinesCompared < 1000 {
		t.Errorf("only %d transcript lines compared; the remote differential is not exercising the daemon", res.LinesCompared)
	}
	if res.CoverageRows < 15 {
		t.Errorf("only %d coverage rows compared", res.CoverageRows)
	}

	// Compiling the same seeds again hits the daemon's caches; the
	// transcripts must not change. (A function-cache codec that drops a
	// classification-relevant field diverges exactly here.)
	res2, err := CheckRemote(c, RemoteOptions{Seeds: []int64{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res2.Mismatches {
		t.Errorf("warm-cache remote mismatch: %s", m)
	}
}

// TestCheckRemoteSpillTier runs the remote differential through the
// daemon's disk tier. The first daemon keeps one artifact per store
// shard, so most compiles evict an earlier artifact to a spill file, and
// Close flushes the rest. A second daemon on the same directory then reads
// every artifact back from disk before its session opens: the first
// configuration of each seed with no sibling resident, the later ones
// sharing the checked front end of the sibling just read. On both, every
// transcript and coverage row must equal the in-process ground truth.
func TestCheckRemoteSpillTier(t *testing.T) {
	var seeds []int64
	for s := int64(0); s < 20; s++ {
		seeds = append(seeds, s)
	}
	opts := server.Options{SpillDir: t.TempDir(), CacheSize: 1}
	for _, phase := range []string{"first", "restarted"} {
		s, c := startDaemon(t, opts)
		res, err := CheckRemote(c, RemoteOptions{Seeds: seeds})
		var st *minic.RemoteStats
		if err == nil {
			st, err = c.Stats()
		}
		c.Close()
		s.Close()
		if err != nil {
			t.Fatalf("%s daemon: %v", phase, err)
		}
		for _, m := range res.Mismatches {
			t.Errorf("%s daemon: spill-tier mismatch: %s", phase, m)
		}
		if res.LinesCompared < 20000 || res.CoverageRows < 200 {
			t.Errorf("%s daemon: only %d transcript lines and %d coverage rows compared",
				phase, res.LinesCompared, res.CoverageRows)
		}
		t.Logf("%s daemon: %d lines, %d coverage rows; spill_hits=%d spill_writes=%d cache_misses=%d funcs_compiled=%d",
			phase, res.LinesCompared, res.CoverageRows, st.SpillHits, st.SpillWrites, st.CacheMisses, st.FuncsCompiled)
		if phase == "restarted" {
			if want := int64(len(seeds) * len(remoteSpecs())); st.SpillHits != want || st.FuncsCompiled != 0 {
				t.Errorf("restarted daemon: spill_hits=%d funcs_compiled=%d, want every one of %d artifacts read from disk and none compiled",
					st.SpillHits, st.FuncsCompiled, want)
			}
		}
	}
}
