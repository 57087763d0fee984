package main

// metricDef names one reported number. Bound, set only on the end-to-end
// metrics, is the share of the parent's median by which the metric may get
// worse before a change counts as a regression; BENCHMARK.json fixes the
// same numbers, and -compare applies them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics every workload reports from the untraced run,
// and the only ones with a regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"requests_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"unit_ms_mean", "ms", "lower", 0.25},
	{"stop_us_gmean", "us", "lower", 0.25},
	{"inspect_us_gmean", "us", "lower", 0.25},
}

// classMetrics are the end-to-end numbers a workload reports only for the
// request classes it issues. They go to the -record file and the human
// report, where -compare reads them. They have no bound: their spread
// from run to run is too wide for one (baseline.md), so -compare judges
// them like the per-layer metrics, by pair wins alone.
var classMetrics = []metricDef{
	{"failed_frac", "frac", "lower", 0},
	{"unit_ms_p50", "ms", "lower", 0},
	{"unit_ms_p90", "ms", "lower", 0},
	{"stop_us_p50", "us", "lower", 0},
	{"stop_us_p90", "us", "lower", 0},
	{"stop_us_p99", "us", "lower", 0},
	{"inspect_us_p50", "us", "lower", 0},
	{"inspect_us_p90", "us", "lower", 0},
	{"inspect_us_p99", "us", "lower", 0},
	{"compile_us_p50", "us", "lower", 0},
	{"compile_us_p90", "us", "lower", 0},
	{"open_us_p50", "us", "lower", 0},
	{"coverage_us_p50", "us", "lower", 0},
	{"coverage_us_p90", "us", "lower", 0},
	{"compile_cold_ms_p50", "ms", "lower", 0},
	{"compile_cold_ms_p90", "ms", "lower", 0},
	{"compile_edit_ms_p50", "ms", "lower", 0},
	{"compile_edit_ms_p90", "ms", "lower", 0},
	{"reopen_ms_p50", "ms", "lower", 0},
	{"reopen_ms_p90", "ms", "lower", 0},
}

// layerRows are the rows of the per-layer attribution table, in table
// order. Each row's self time is reported per call and as a share of the
// traced total; the rows sum to that total exactly because the residuals
// (wire, server.other, funccache.stitch) are rows of their own.
var layerRows = []string{
	"wire",
	"server.decode",
	"server.other",
	"store.get",
	"store.lookup",
	"store.spill.read",
	"store.spill.write",
	"front",
	"funccache.key",
	"funccache.stitch",
	"opt",
	"lower",
	"regalloc",
	"sched",
	"core.analyze",
	"coverage.sweep",
	"debugger.open",
	"debugger.break",
	"vm.run",
	"core.classify",
	"debugger.display",
}

// perLayer are the metrics a traced run (-trace 1) reports. They have no
// regression bound: they explain an end-to-end change, they do not gate
// one.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"wire.us_per_req", "us", "lower", 0},
		{"server.decode.us_per_req", "us", "lower", 0},
		{"server.decode.allocs_per_req", "count", "lower", 0},
		{"server.other.us_per_req", "us", "lower", 0},
		{"server.requests", "count", "higher", 0},
		{"store.get.us_per_call", "us", "lower", 0},
		{"store.hit_ratio", "frac", "higher", 0},
		{"store.evictions", "count", "lower", 0},
		{"store.spill.reads", "count", "lower", 0},
		{"store.spill.read_ms_per_call", "ms", "lower", 0},
		{"store.spill.writes", "count", "lower", 0},
		{"store.spill.write_ms_per_call", "ms", "lower", 0},
		{"front.ms_per_compile", "ms", "lower", 0},
		{"funccache.key_ms_per_compile", "ms", "lower", 0},
		{"funccache.stitch_ms_per_compile", "ms", "lower", 0},
		{"funccache.reuse_ratio", "frac", "higher", 0},
		{"opt.ms_per_func", "ms", "lower", 0},
		{"lower.ms_per_func", "ms", "lower", 0},
		{"regalloc.ms_per_func", "ms", "lower", 0},
		{"sched.ms_per_func", "ms", "lower", 0},
		{"backend.funcs", "count", "lower", 0},
		{"core.analyze.ms_per_func", "ms", "lower", 0},
		{"core.analyses_built", "count", "lower", 0},
		{"core.classify.us_per_var", "us", "lower", 0},
		{"core.vars_classified", "count", "higher", 0},
		{"coverage.sweep.us_per_call", "us", "lower", 0},
		{"coverage.pairs", "count", "higher", 0},
		{"vm.run.ms_total", "ms", "lower", 0},
		{"vm.instrs", "count", "higher", 0},
		{"vm.minstr_per_s", "MInstr/s", "higher", 0},
		{"debugger.open.us_per_call", "us", "lower", 0},
		{"debugger.break.us_per_call", "us", "lower", 0},
		{"heap.allocs_per_req", "count", "lower", 0},
		{"heap.alloc_bytes_per_req", "B", "lower", 0},
		{"gc.cpu_frac", "frac", "lower", 0},
		{"trace.overhead_frac", "frac", "lower", 0},
	}
	for _, r := range layerRows {
		defs = append(defs, metricDef{r + ".frac", "frac", "lower", 0})
	}
	return defs
}()

// metricValue is one reported number with its unit, the shape of the
// "metrics" object in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -record appends it and -compare reads it: every
// metric the run measured, end-to-end, per-class and (traced) per-layer.
type record struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    int                    `json:"trace"`
	Correct  bool                   `json:"correct"`
	Metrics  map[string]metricValue `json:"metrics"`
}

// defOf finds a metric definition by name across all tables.
func defOf(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, classMetrics, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
