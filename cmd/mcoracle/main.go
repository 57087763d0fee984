// mcoracle is the differential-oracle CLI: the command-line face of
// internal/oracle's O0-vs-optimized validation engine and coverage
// sweeps.
//
// Usage:
//
//	mcoracle                         corpus sweep (200 seeds, O2 + O2NoRegAlloc)
//	mcoracle -configs all            one sweep and one row per configuration
//	mcoracle -configs O1,-pre        the same for configurations picked by name
//	mcoracle -seeds 50 -minimize     bounded sweep, ddmin-minimized repros
//	mcoracle -coverage               corpus coverage table per config
//	mcoracle -pass-coverage          coverage table per ablated pass
//	mcoracle -workloads              coverage table per bench workload
//	mcoracle -addr host:port         remote differential against a live mcd
//	mcoracle -addr host:port -soak N scripted-client soak via the load generator
//
// The corpus sweep exits nonzero when any defect is recorded and writes
// each mismatch (with its minimized repro when -minimize is set) to the
// file named by -out, which is what the CI smoke step uploads as an
// artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/coverage"
	"repro/internal/loadgen"
	"repro/internal/opt"
	"repro/internal/oracle"
	"repro/pkg/minic"
)

func main() {
	seeds := flag.Int("seeds", 200, "number of randprog seeds to sweep")
	maxStops := flag.Int("max-stops", 200, "stop budget per trace")
	minimize := flag.Bool("minimize", false, "ddmin-minimize each failing seed's source")
	out := flag.String("out", "oracle_failures.txt", "file to write mismatch details to")
	covFlag := flag.Bool("coverage", false, "print the per-config corpus coverage table")
	passCov := flag.Bool("pass-coverage", false, "print the per-pass coverage ablation table")
	workloads := flag.Bool("workloads", false, "print the per-workload coverage table")
	addr := flag.String("addr", "", "remote mode: address of a live mcd daemon")
	token := flag.String("token", "", "auth token for the remote daemon")
	soak := flag.Int("soak", 0, "remote mode: scripted-client soak iterations instead of the differential")
	configs := flag.String("configs", "default", "optimized configurations to sweep: default (O2 and O2NoRegAlloc together), all (every pass variant but O0, plus O1 and O1NoRegAlloc, one row each), or a comma list of their names")
	flag.Parse()

	switch {
	case *addr != "":
		remoteMain(*addr, *token, *seeds, *maxStops, *soak)
	case *passCov:
		rows, err := oracle.PassCoverage(seedList(min(*seeds, 20)))
		check(err)
		fmt.Print(coverage.FormatTable(rows))
	case *workloads:
		rows, err := oracle.WorkloadCoverage()
		check(err)
		fmt.Print(coverage.FormatTable(rows))
	case *configs != "default":
		vs, err := pickConfigs(*configs)
		check(err)
		configsMain(vs, *seeds, *maxStops, *minimize, *out)
	default:
		corpusMain(*seeds, *maxStops, *minimize, *covFlag, *out)
	}
}

// allConfigs are the configurations -configs all sweeps: every pass
// variant but O0 (the ground truth), then O1 with and without register
// allocation.
func allConfigs() []oracle.PassVariant {
	var vs []oracle.PassVariant
	for _, v := range oracle.PassVariants() {
		if v.Name != "O0" {
			vs = append(vs, v)
		}
	}
	return append(vs,
		oracle.PassVariant{Name: "O1", Config: compile.O1()},
		oracle.PassVariant{Name: "O1NoRegAlloc", Config: compile.Config{Opt: opt.O1()}},
	)
}

// pickConfigs resolves -configs: "all", or a comma list of names from
// allConfigs and the default pair.
func pickConfigs(list string) ([]oracle.PassVariant, error) {
	all := allConfigs()
	if list == "all" {
		return all, nil
	}
	known := map[string]compile.Config{}
	for _, v := range all {
		known[v.Name] = v.Config
	}
	for name, cfg := range oracle.DefaultConfigs() {
		known[name] = cfg
	}
	var vs []oracle.PassVariant
	for _, name := range strings.Split(list, ",") {
		cfg, ok := known[name]
		if !ok {
			return nil, fmt.Errorf("-configs: unknown configuration %q", name)
		}
		vs = append(vs, oracle.PassVariant{Name: name, Config: cfg})
	}
	return vs, nil
}

// configsMain runs the differential sweep once per configuration and
// prints a row for each: its mismatches, the seeds swept, the aligned
// stops compared and the sweep's wall time (O0 runs included). It exits
// nonzero when any configuration has a mismatch, writing them all to out.
func configsMain(vs []oracle.PassVariant, seeds, maxStops int, minimize bool, out string) {
	fmt.Printf("%-18s %10s %6s %8s %8s\n", "config", "mismatches", "seeds", "stops", "time")
	var all []oracle.Mismatch
	for _, v := range vs {
		start := time.Now()
		res, err := oracle.Run(oracle.Options{
			Seeds:    seedList(seeds),
			Configs:  map[string]compile.Config{v.Name: v.Config},
			MaxStops: maxStops,
			Minimize: minimize,
		})
		check(err)
		fmt.Printf("%-18s %10d %6d %8d %7.1fs\n", v.Name, len(res.Mismatches), res.Totals.Seeds,
			res.Totals.Stops, time.Since(start).Seconds())
		all = append(all, res.Mismatches...)
	}
	if len(all) == 0 {
		fmt.Println("PASS: no mismatches")
		return
	}
	writeMismatches(all, out)
}

// corpusMain runs the in-process differential sweep and coverage
// aggregation.
func corpusMain(seeds, maxStops int, minimize, covFlag bool, out string) {
	res, err := oracle.Run(oracle.Options{
		Seeds:    seedList(seeds),
		MaxStops: maxStops,
		Minimize: minimize,
		Progress: func(seed int64, defects int) {
			if seed%50 == 49 {
				fmt.Fprintf(os.Stderr, "  seed %d, %d defects so far\n", seed, defects)
			}
		},
	})
	check(err)
	fmt.Printf("totals: %+v\n", res.Totals)
	if covFlag || len(res.Mismatches) == 0 {
		var rows []coverage.Row
		for _, name := range []string{"O0", "O2", "O2NoRegAlloc"} {
			if c, ok := res.Coverage[name]; ok {
				rows = append(rows, coverage.Row{Label: name, Counts: c})
			}
		}
		fmt.Print(coverage.FormatTable(rows))
	}
	if len(res.Mismatches) == 0 {
		fmt.Println("PASS: no mismatches")
		return
	}
	writeMismatches(res.Mismatches, out)
}

// writeMismatches writes each mismatch (and its minimized repro) to out
// and exits nonzero.
func writeMismatches(ms []oracle.Mismatch, out string) {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s\n", m)
		if m.Minimized != "" {
			fmt.Fprintf(&b, "--- minimized repro ---\n%s\n", m.Minimized)
		}
	}
	if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", out, err)
	}
	fmt.Fprintf(os.Stderr, "FAIL: %d mismatches (details in %s)\n", len(ms), out)
	os.Exit(1)
}

// remoteMain drives the remote differential (or the scripted soak)
// against a live daemon.
func remoteMain(addr, token string, seeds, maxStops, soak int) {
	var opts []minic.DialOption
	if token != "" {
		opts = append(opts, minic.WithAuthToken(token))
	}
	opts = append(opts, minic.WithRetry(minic.RetryPolicy{}))
	c, err := minic.Dial("tcp", addr, opts...)
	check(err)
	defer c.Close()

	if soak > 0 {
		soakMain(c, soak)
		return
	}
	res, err := oracle.CheckRemote(c, oracle.RemoteOptions{Seeds: seedList(seeds), MaxStops: maxStops})
	check(err)
	fmt.Printf("remote differential: %d seeds, %d transcript lines, %d coverage rows compared\n",
		res.Seeds, res.LinesCompared, res.CoverageRows)
	if len(res.Mismatches) == 0 {
		fmt.Println("PASS: daemon is transparent")
		return
	}
	for _, m := range res.Mismatches {
		fmt.Fprintf(os.Stderr, "MISMATCH %s\n", m)
	}
	os.Exit(1)
}

// soakMain reuses the chaos load generator's scripted client: every
// iteration must produce the byte-identical canonical transcript.
func soakMain(c *minic.Client, iterations int) {
	var ref []string
	for i := 0; i < iterations; i++ {
		tr, err := loadgen.RunIteration(c, loadgen.DefaultProgram("mcoracle-soak"))
		check(err)
		if i == 0 {
			ref = tr
			continue
		}
		if strings.Join(tr, "\n") != strings.Join(ref, "\n") {
			fmt.Fprintf(os.Stderr, "FAIL: iteration %d transcript diverged\nref: %v\ngot: %v\n", i, ref, tr)
			os.Exit(1)
		}
	}
	fmt.Printf("PASS: %d identical soak iterations\n", iterations)
}

func seedList(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
