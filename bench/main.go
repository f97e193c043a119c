// Command bench is the repository benchmark. It builds helix-bench,
// helix-explore and helix-serve from the checkout, drives them the way
// users do, verifies every output hash, and prints every metric by name
// and unit, ending with one JSON result line.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload eval-cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                       # all four workloads
//	bash bench/run.sh --trace 1             # per-layer metrics + layer walk
//	bash bench/run.sh -tracefile t.json     # ... and a Chrome trace (Perfetto)
//	bash bench/run.sh -sets 5               # repeat, print median and IQR
//
// or, from bench/, `go run . -root .. [flags]`. See README.md for the
// workloads, the metric definitions and a baseline.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"helixrc/internal/benchreport"
)

// Reference reports the outputs are verified against, relative to the
// repository root.
const (
	evalRef         = "BENCH_2026-08-07.json"
	smallExploreRef = "EXPLORE_2026-08-07.json"
	wideExploreRef  = "bench/testdata/EXPLORE_wide.json"
)

// buildDir holds everything the benchmark builds or writes, under the
// repository root.
const buildDir = ".bench_build"

// setupReps is how often a run repeats its set-up (once with -quick);
// setup_s is the median. Only the last set-up's product (a warm cache, a
// warm daemon) is measured.
const setupReps = 3

// workload is one benchmark workload; BENCHMARK.json and README.md say
// why each exists.
type workload struct {
	name string
	run  func(r *runner) error
	// walkScenarios selects the walk's inputs: the registered scenarios
	// instead of the SPEC analogues.
	walkScenarios bool
}

var allWorkloads = []workload{
	{name: "eval-cold", run: runEvalCold},
	{name: "eval-warm", run: runEvalWarm},
	{name: "explore-sweep", run: runExploreSweep, walkScenarios: true},
	{name: "serve-figures", run: runServeFigures},
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceFile string
	sets      int
	quick     bool
	root      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: eval-cold, eval-warm, explore-sweep or serve-figures (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (the order of served figure requests)")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase of one run, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, the layer walk and a Chrome trace instead of the end-to-end metrics")
	flag.StringVar(&o.traceFile, "tracefile", "", "write the traced run's Chrome trace-event JSON here (implies -trace 1; default "+buildDir+"/trace-<workload>.json)")
	flag.IntVar(&o.sets, "sets", 1, "repeat every run this many times and report each metric's median and IQR")
	flag.BoolVar(&o.quick, "quick", false, "smoke-sized runs: one set-up, fig9 only, the 4-point explore grid, 20 served requests, a one-program walk")
	flag.StringVar(&o.root, "root", "..", "repository root (holds go.mod and cmd/)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("bench: ")

	if o.traceFile != "" {
		o.trace = 1
	}
	if o.trace != 0 && o.trace != 1 {
		log.Fatalf("-trace %d: want 0 or 1", o.trace)
	}
	if o.sets < 1 || o.seconds < 0 {
		log.Fatal("-sets must be at least 1 and -seconds not negative")
	}
	ws := allWorkloads
	if o.workload != "" {
		ws = nil
		for _, w := range allWorkloads {
			if w.name == o.workload {
				ws = []workload{w}
			}
		}
		if ws == nil {
			log.Fatalf("unknown workload %q", o.workload)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o, ws, os.Stdout)
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run builds the CLIs, runs every selected workload o.sets times,
// prints a table per workload, and returns the result line. With one
// workload the metric names are the catalogue's; with several they are
// prefixed "<workload>.".
func run(ctx context.Context, o options, ws []workload, out io.Writer) (*result, error) {
	e, err := newEnv(ctx, o.root)
	if err != nil {
		return nil, err
	}
	defer e.close()

	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer()
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		runs := samples{}
		for set := 0; set < o.sets; set++ {
			r, err := newRunner(ctx, e, o, o.seed+int64(set))
			if err != nil {
				return nil, err
			}
			if o.trace == 1 {
				r.tr = newTracer()
			}
			err = r.execute(w)
			os.RemoveAll(r.work)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			res.Attempted += r.attempted
			res.Failed += r.failed
			res.Correct = res.Correct && r.correct()
			for _, p := range r.problems {
				fmt.Fprintf(out, "%s: %s\n", w.name, p)
			}
			for _, d := range defs {
				runs[d.name] = append(runs[d.name], r.vals[d.name])
			}
			if r.tr != nil {
				path := o.traceFile
				if path == "" {
					path = filepath.Join(e.root, buildDir, "trace-"+w.name+".json")
				}
				if err := r.tr.write(path); err != nil {
					return nil, err
				}
				printLayerTable(out, r.layerTable)
				fmt.Fprintf(out, "trace written to %s\n", path)
			}
			if o.sets == 1 {
				printTable(out, fmt.Sprintf("== %s (seed %d)", w.name, r.seed), defs, r.vals, r.raw)
			}
		}
		vals := map[string]float64{}
		for _, d := range defs {
			vals[d.name] = median(runs[d.name])
			name := d.name
			if len(ws) > 1 {
				name = w.name + "." + d.name
			}
			res.Metrics[name] = metric{Value: vals[d.name], Unit: d.unit}
		}
		if o.sets > 1 {
			printTable(out, fmt.Sprintf("== %s: median of %d sets (seeds %d..%d)", w.name, o.sets, o.seed, o.seed+int64(o.sets-1)), defs, vals, runs)
		}
	}
	return res, nil
}

// env is the built checkout the workloads run against.
type env struct {
	root     string // absolute repository root
	bin      string // the built CLIs
	work     string // this process's scratch directory, removed by close
	wantEval map[string]string
}

// newEnv checks that root is a helixrc checkout, builds the CLIs into
// <root>/.bench_build/bin (the build is not timed), and loads the
// reference hashes.
func newEnv(ctx context.Context, root string) (*env, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	for _, need := range []string{"go.mod", "cmd/helix-bench", evalRef, wideExploreRef} {
		if _, err := os.Stat(filepath.Join(abs, need)); err != nil {
			return nil, fmt.Errorf("%s is not a helixrc checkout: %w", abs, err)
		}
	}
	e := &env{root: abs, bin: filepath.Join(abs, buildDir, "bin")}
	build := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/helix-bench", "./cmd/helix-explore", "./cmd/helix-serve")
	build.Dir = abs
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the CLIs: %v\n%s", err, out)
	}
	if e.wantEval, err = benchreport.ExpectedHashes(e.path(evalRef)); err != nil {
		return nil, err
	}
	if e.work, err = os.MkdirTemp(filepath.Join(abs, buildDir), "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// path resolves a repository-relative path.
func (e *env) path(rel string) string { return filepath.Join(e.root, rel) }

func (e *env) close() { os.RemoveAll(e.work) }

// runner holds one run of one workload: its outcome counters and the
// samples and values of its metrics.
type runner struct {
	ctx    context.Context
	env    *env
	work   string // this run's scratch directory
	seed   int64
	dur    time.Duration
	quick  bool
	setups int     // set-up repetitions
	tr     *tracer // nil unless traced

	attempted, failed int
	problems          []string
	raw               samples            // raw samples behind medians
	vals              map[string]float64 // reported values
	busy              time.Duration      // summed wall of the measured processes
	layerTable        []layerRow
	dirs              int
}

func newRunner(ctx context.Context, e *env, o options, seed int64) (*runner, error) {
	work, err := os.MkdirTemp(e.work, "run-")
	if err != nil {
		return nil, err
	}
	r := &runner{
		ctx: ctx, env: e, work: work, seed: seed, quick: o.quick, setups: setupReps,
		dur:  time.Duration(o.seconds * float64(time.Second)),
		raw:  samples{},
		vals: map[string]float64{},
	}
	if o.quick {
		r.setups = 1
	}
	return r, nil
}

// execute runs the workload, derives every metric of the catalogue
// (medians of the raw samples unless the workload set a value), and —
// when traced — runs the layer walk.
func (r *runner) execute(w workload) error {
	r.tr.thread(laneOps, "operations")
	if err := w.run(r); err != nil {
		return err
	}
	for name, xs := range r.raw {
		if _, set := r.vals[name]; !set {
			r.vals[name] = median(xs)
		}
	}
	if r.tr != nil {
		return r.walk(w.walkScenarios)
	}
	return nil
}

// attempt counts one operation; a non-nil err marks it failed.
func (r *runner) attempt(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// problem records a failed check that is not an operation.
func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runner) correct() bool { return len(r.problems) == 0 }

// measure runs op for the measured phase: until --seconds have passed
// (at least once), or exactly quickOps times with -quick.
func (r *runner) measure(quickOps int, op func() error) error {
	start := time.Now()
	for n := 0; ; n++ {
		if r.quick && n >= quickOps || !r.quick && n > 0 && time.Since(start) >= r.dur {
			return nil
		}
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if err := op(); err != nil {
			return err
		}
	}
}

// freshDir returns a new empty directory under the run's scratch dir.
func (r *runner) freshDir(kind string) (string, error) {
	r.dirs++
	dir := filepath.Join(r.work, fmt.Sprintf("%s-%d", kind, r.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
