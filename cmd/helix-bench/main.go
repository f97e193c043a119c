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
//	helix-bench -workers 4         # shard the evaluation over 4 worker processes
//	helix-bench -workers 2 -remote http://host:8080  # share through helix-serve
//
// Experiment names: fig1 fig2 fig3 fig4 table1 fig7 fig8 fig9 fig10
// fig11a fig11b fig11c fig11d fig12 tlp.
//
// Figure output is byte-identical at every -parallel level and at
// every -workers count; only wall-clock changes.
//
// -workers N forks N copies of this binary that share nothing but the
// cache substrate. By default that is a cache directory (a temporary
// one if -cachedir is not given) with atomic claim files in it; with
// -remote it is a helix-serve blob backend, whose claim table replaces
// the claim files and whose blob store carries the recordings — and if
// no -cachedir is given, each worker runs on its own disjoint scratch
// cache, proving the daemon is the only shared state (the
// multi-machine topology). Workers partition the work coordinator-free
// — first the trace recordings (the dominant cost, deduplicated across
// figures), then whole experiments — and each writes a partial report
// the parent merges deterministically. A crashed worker's claims
// expire after -lease and are stolen, so the evaluation completes as
// long as one worker survives; a dead -remote daemon degrades every
// lookup to a cache miss and every claim to uncoordinated (duplicated,
// still byte-identical) work. -workers replaces in-process
// parallelism: children default to -parallel 1, so N workers do not
// oversubscribe the host; pass -parallel explicitly to run hybrid. For
// manual or multi-machine sharding, run each worker yourself with
// -shard i/n against a shared -cachedir or -remote, a common fresh
// -runid and a per-worker -jsonfile, then merge the partial reports
// with `go run ./scripts -merge`.
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
	"strconv"
	"time"

	"helixrc/internal/artifact"
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

	os.Exit(drive.Run(&o, plan(&o, only)))
}

// plan selects the experiments (-only filters the canonical list) and
// describes the run to the shared orchestrator.
func plan(o *drive.Options, only string) *drive.Plan {
	var exps []drive.Experiment
	for _, e := range harness.Experiments(o.Cores) {
		if only != "" && e.Name != only {
			continue
		}
		exps = append(exps, drive.Experiment{
			Name:     e.Name,
			ClaimKey: harness.ExperimentClaimKey(e.Name, o.Cores),
			Run:      e.Run,
		})
	}

	childArgs := []string{"-cores", strconv.Itoa(o.Cores)}
	if only != "" {
		childArgs = append(childArgs, "-only", only)
	}
	if o.CellTimeout > 0 {
		childArgs = append(childArgs, "-celltimeout", o.CellTimeout.String())
	}

	return &drive.Plan{
		What:             "benchmark",
		Units:            "experiment(s)",
		IncompleteWhat:   "evaluation",
		ReportPrefix:     "BENCH",
		TempCachePattern: "helix-bench-cache-*",
		Experiments:      exps,
		MergeOrder:       harness.ExperimentNames(),
		ChildArgs:        childArgs,
		Warm: func(ctx context.Context, claims artifact.Claims) {
			// Sharded phase A: warm the shared store cooperatively. The
			// unit plan is identical on every worker (content-keyed), so
			// the claims partition the recordings.
			if claims == nil {
				return
			}
			names := make([]string, len(exps))
			for i, e := range exps {
				names[i] = e.Name
			}
			units, err := harness.PlanUnits(ctx, names, o.Cores)
			if err != nil {
				fmt.Fprintf(os.Stderr, "shard %s: planning work units: %v (continuing uncoordinated)\n", o.Shard, err)
				return
			}
			harness.RunPlan(ctx, units, claims)
		},
		Banner: func(total time.Duration, workers int) string {
			if only != "" {
				return ""
			}
			if workers > 0 {
				return fmt.Sprintf("All experiments complete in %.1fs (%d worker processes). See EXPERIMENTS.md for the paper-vs-measured comparison.",
					total.Seconds(), workers)
			}
			return fmt.Sprintf("All experiments complete in %.1fs (%d workers). See EXPERIMENTS.md for the paper-vs-measured comparison.",
				total.Seconds(), harness.Parallelism())
		},
	}
}
