// helix-bench regenerates the tables and figures of the paper's
// evaluation (Section 6).
//
// Usage:
//
//	helix-bench                    # everything, parallel across all CPUs
//	helix-bench -only fig7         # one experiment
//	helix-bench -parallel 1        # sequential (reference ordering)
//	helix-bench -json              # also append a report to BENCH_<date>.json
//	helix-bench -verify FILE       # compare output hashes against a BENCH_*.json
//	helix-bench -timeout 10m       # bound the whole run's wall clock
//	helix-bench -celltimeout 30s   # bound each experiment cell (partial figures)
//	helix-bench -quiet             # silence cache-eviction diagnostics
//	helix-bench -cachedir .cache   # persist traces + baselines across runs
//	helix-bench -cachedir .cache -cacheclear   # wipe the disk tier first
//	helix-bench -shard 1/2 -runid r1 -cachedir .cache -jsonfile part1.json
//	                               # worker 1 of a 2-process evaluation
//
// Experiment names: fig1 fig2 fig3 fig4 table1 fig7 fig8 fig9 fig10
// fig11a fig11b fig11c fig11d fig12 tlp.
//
// A run plans first, executes the plan, then renders: it enumerates the
// trace work units of every selected experiment (the harness Env's
// PlanUnits), records and batch-retimes them all before the first
// figure (RunPlan), and the figures then read hot caches. Figure
// output is byte-identical at every -parallel level and in every
// sharded run; only wall-clock changes.
//
// To spread an evaluation over several processes or machines, start
// each worker yourself with -shard i/n, a common fresh -runid, a
// per-worker -jsonfile and a shared store: a -cachedir on a common
// filesystem (atomic claim files in it), or -remote, a helix-serve blob
// backend whose claim table replaces the claim files and whose blob
// store carries the recordings, so workers need share no filesystem.
// Workers partition the work coordinator-free — first the trace
// recordings (the dominant cost, deduplicated across figures), then
// whole experiments — and each writes a partial report; merge them with
// `go run ./scripts -merge -o OUT.json PART...`. A crashed worker's
// claims expire after -lease and are stolen, so the evaluation
// completes as long as one worker survives; a dead -remote daemon
// degrades every lookup to a cache miss and every claim to
// uncoordinated (duplicated, still byte-identical) work. Give workers
// that share a host -parallel 1, so they do not oversubscribe it.
//
// SIGINT/SIGTERM (and -timeout expiry) cancel in-flight work: workers
// drain, the run stops after the current cells return, and -json still
// writes a valid report flagged "interrupted" with the experiments that
// completed. -celltimeout instead degrades individual slow cells: the
// figure completes with zero values in the timed-out cells and a
// PARTIAL FIGURE note naming them.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"helixrc/internal/cliutil"
	"helixrc/internal/drive"
	"helixrc/internal/harness"
)

func main() {
	var o drive.Options
	var only string
	drive.RegisterFlags(&o, "evaluation", "BENCH")
	flag.StringVar(&only, "only", "", "run a single experiment (e.g. fig7)")
	flag.IntVar(&o.Cores, "cores", 16, "core count for the headline experiments")
	flag.DurationVar(&o.CellTimeout, "celltimeout", 0, "bound each experiment cell; slow cells degrade to zero values in a flagged partial figure (0 = none)")
	flag.Parse()

	if err := cliutil.CheckCores(o.Cores); err != nil {
		log.Fatal(err)
	}
	if err := checkOnly(only); err != nil {
		log.Fatal(err)
	}

	os.Exit(drive.Run(&o, func(env *harness.Env) *drive.Plan { return plan(env, &o, only) }))
}

// checkOnly fails unless -only is empty or names one of the canonical
// experiments.
func checkOnly(only string) error {
	if only == "" {
		return nil
	}
	return cliutil.CheckOneOf("only", only, harness.ExperimentNames()...)
}

// plan selects the experiments (-only, which checkOnly accepted, filters
// the canonical list) and describes the run to the shared orchestrator.
func plan(env *harness.Env, o *drive.Options, only string) *drive.Plan {
	var exps []drive.Experiment
	var names []string
	for _, e := range env.Experiments(o.Cores) {
		if only != "" && e.Name != only {
			continue
		}
		names = append(names, e.Name)
		exps = append(exps, drive.Experiment{
			Name:     e.Name,
			ClaimKey: harness.ExperimentClaimKey(e.Name, o.Cores),
			Run:      e.Run,
		})
	}

	return &drive.Plan{
		What:           "benchmark",
		Units:          "experiment(s)",
		IncompleteWhat: "evaluation",
		ReportPrefix:   "BENCH",
		Experiments:    exps,
		Work: func(ctx context.Context) ([]harness.WorkUnit, error) {
			return env.PlanUnits(ctx, names, o.Cores)
		},
		Banner: func(total time.Duration) string {
			if only != "" {
				return ""
			}
			return fmt.Sprintf("All experiments complete in %.1fs (%d workers). See EXPERIMENTS.md for the paper-vs-measured comparison.",
				total.Seconds(), env.Workers())
		},
	}
}
