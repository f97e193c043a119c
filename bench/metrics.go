package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"helixrc/internal/harness"
	"helixrc/internal/irgen"
)

// metric is one reported number with its unit, in the shape of the
// result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one metric of the catalogue.
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of the CLIs sees, reported by every
// workload with tracing off. An "operation" is one helix-bench or
// helix-explore process (exec to exit) on the CLI workloads and one
// figure job (submit to the poll that sees it done) on serve-figures.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // median of the repeated set-ups of one run
	{"op_p50_ms", "ms"},   // median operation latency
	{"ops_per_s", "1/s"},  // operations completed per measured second
	{"peak_rss_mb", "MB"}, // median peak RSS of the measured processes
}

// walkLayer is one layer the traced walk calls into. rate names the
// throughput metric of layers that execute programs; the others report
// milliseconds per call.
type walkLayer struct{ name, rate string }

// walkLayers are the pipeline's layers in pipeline order: workload
// build, compiler passes, execution, trace codec and tiers, retiming.
var walkLayers = []walkLayer{
	{"workloads.get", ""},
	{"scenarios.build", ""},
	{"cfg.graph", ""},
	{"alias.analyze", ""},
	{"ddg.build", ""},
	{"induction.classify", ""},
	{"hcc.compile", ""},
	{"hcc.compile_abstract", ""},
	{"interp.run", "interp.minstr_per_s"},
	{"sim.record", "sim.record.minstr_per_s"},
	{"sim.encode", ""},
	{"sim.decode", ""},
	{"artifact.disk_save", ""},
	{"artifact.disk_load", ""},
	{"sim.replay", "sim.replay.minstr_per_s"},
	{"sim.replay_batch", "sim.replay_batch.lane_minstr_per_s"},
	{"sim.run", "sim.run.minstr_per_s"},
	{"sim.run_abstract", "sim.run_abstract.minstr_per_s"},
}

// reportExperiments are the experiment names a CLI report can carry:
// the paper's fifteen, then helix-explore's one per family.
func reportExperiments() []string {
	names := harness.ExperimentNames()
	for _, f := range irgen.Families() {
		names = append(names, "explore:"+string(f))
	}
	return names
}

// metricName turns an experiment name into a metric-name component
// ("explore:pointer-chase" -> "explore.pointer-chase").
func metricName(exp string) string { return strings.ReplaceAll(exp, ":", ".") }

// perLayer is the catalogue of per-layer metrics a traced run reports,
// on every workload. A layer the workload does not reach reports 0:
// the work it did there.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	// From each CLI's -jsonfile report (the serve daemon's /metrics
	// supplies the cache counters it keeps).
	add("count", "harness.recordings", "harness.replays", "harness.batches", "harness.batch_lanes", "harness.batch_fallbacks")
	for _, e := range reportExperiments() {
		add("ms", "harness.exp."+metricName(e)+"_ms")
	}
	add("ms", "harness.warm_ms", "cli.overhead_ms")
	add("count", "artifact.mem_hits", "artifact.mem_misses")
	add("ratio", "artifact.mem_hit_ratio")
	add("count", "artifact.disk_hits", "artifact.disk_writes")
	add("ms", "artifact.disk_load_total_ms")
	add("MB", "runtime.total_alloc_mb")
	add("count", "runtime.num_gc")
	add("ms", "runtime.gc_pause_ms")
	// From the serve client and the job views.
	add("ms", "server.submit_ms", "server.status_ms")
	add("count", "server.polls_per_job")
	add("ms", "server.queue_ms_p50", "server.queue_ms_p95", "server.run_ms_p50", "server.run_ms_p95", "server.job_p95_ms")
	add("count", "server.recordings")
	for _, e := range harness.ExperimentNames() {
		add("ms", "server.run."+e+"_ms")
	}
	// From the layer walk.
	for _, l := range walkLayers {
		if l.rate != "" {
			add("Minstr/s", l.rate)
		} else {
			add("ms", l.name+"_ms")
		}
		add("count", l.name+".allocs_per_op")
		add("KB", l.name+".kb_per_op")
	}
	add("MB", "sim.trace_mb")
	add("count", "walk.mismatches")
	add("ms", "walk.trace_overhead_ms")
	return defs
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of the
// raw samples: the smallest sample with at least p% of all samples at
// or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// interpolation), so a spread printed here matches one computed from
// the result lines. Fewer than two samples have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := sorted(xs)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// samples is a named series of raw measurements behind one metric,
// kept so the table can show its sample count and spread.
type samples map[string][]float64

// printTable writes one row per metric of defs: the value, its unit,
// and — where the value summarizes several samples — their count and
// interquartile range.
func printTable(w io.Writer, title string, defs []metricDef, vals map[string]float64, raw samples) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		line := fmt.Sprintf("  %-44s %14.4f %-9s", d.name, vals[d.name], d.unit)
		if xs := raw[d.name]; len(xs) > 1 {
			q1, q3 := quartiles(xs)
			line += fmt.Sprintf(" n=%d IQR=%.4f (%.1f%%)", len(xs), q3-q1, 100*spread(xs))
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}
