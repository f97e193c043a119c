// benchdiff compares two helix-bench reports into a wall-clock speedup
// table and flags output-hash mismatches, gates a report against the
// checked-in per-family performance budgets (enforcement mode), or
// merges the partial reports of a manually sharded evaluation.
//
// Usage:
//
//	go run ./scripts BENCH_a.json BENCH_b.json   # last run of a vs last run of b
//	go run ./scripts BENCH_a.json                # first vs last run of one file
//	go run ./scripts -enforce -budgets perf/budgets.json REPORT.json
//	go run ./scripts -merge -o BENCH_merged.json PART1.json PART2.json
//
// Speedup is old/new wall-clock per experiment (> 1 means the second
// report is faster). Any experiment whose output_sha256 differs between
// the reports is listed and the exit status is 1 — a speedup obtained
// by changing the figures is a bug, not a win.
//
// Enforcement mode takes the last run of REPORT.json, sums each budget
// family's experiment wall-clocks, and exits non-zero when a family
// exceeds its budget (or the run's total allocation exceeds the cap).
// scripts/check.sh runs it so a perf regression fails the gate instead
// of drifting in silently.
//
// Merge mode reassembles the per-worker partial reports of a manual
// multi-machine `helix-bench -shard i/n` evaluation (the in-process
// -workers mode merges automatically): experiments land in canonical
// order, aggregate counters are summed, per-worker counters survive,
// and two workers disagreeing on an output hash is an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"helixrc/internal/benchreport"
	"helixrc/internal/harness"
)

// The report shapes live in internal/benchreport, shared with
// cmd/helix-bench so the writer and the readers can never drift.
type (
	experiment   = benchreport.Experiment
	replayReport = benchreport.Replay
	run          = benchreport.Report
)

func loadRuns(path string) []run {
	runs, err := benchreport.Load(path)
	if err != nil {
		fatalf("%v", err)
	}
	return runs
}

func describe(r run) string {
	tag := r.Label
	if tag == "" {
		tag = r.Timestamp
	}
	extras := ""
	if r.Workers > 0 {
		extras += fmt.Sprintf(" workers=%d", r.Workers)
	}
	if r.Shard != "" {
		extras += " shard=" + r.Shard
	}
	return fmt.Sprintf("%s (parallel=%d%s)", tag, r.Parallel, extras)
}

func main() {
	enforce := flag.Bool("enforce", false, "gate the report against per-family perf budgets instead of diffing")
	budgetsPath := flag.String("budgets", "perf/budgets.json", "budget file for -enforce")
	merge := flag.Bool("merge", false, "merge partial shard reports into one run")
	mergeOut := flag.String("o", "", "append the merged run to this report file (-merge)")
	flag.Parse()
	args := flag.Args()

	if *enforce {
		if len(args) != 1 {
			fatalf("usage: benchdiff -enforce [-budgets FILE] REPORT.json")
		}
		enforceBudgets(*budgetsPath, args[0])
		return
	}
	if *merge {
		if len(args) < 1 || *mergeOut == "" {
			fatalf("usage: benchdiff -merge -o OUT.json PART1.json [PART2.json ...]")
		}
		mergeParts(*mergeOut, args)
		return
	}

	var prev, cur run
	switch len(args) {
	case 1:
		runs := loadRuns(args[0])
		if len(runs) < 2 {
			fatalf("%s has a single run; pass two files to compare across files", args[0])
		}
		prev, cur = runs[0], runs[len(runs)-1]
	case 2:
		oldRuns, newRuns := loadRuns(args[0]), loadRuns(args[1])
		prev, cur = oldRuns[len(oldRuns)-1], newRuns[len(newRuns)-1]
	default:
		fatalf("usage: benchdiff OLD.json [NEW.json]")
	}

	newByName := map[string]experiment{}
	for _, e := range cur.Experiments {
		newByName[e.Name] = e
	}

	fmt.Printf("old: %s\nnew: %s\n\n", describe(prev), describe(cur))
	fmt.Printf("%-10s %12s %12s %9s\n", "experiment", "old ms", "new ms", "speedup")
	mismatches := 0
	var oldTotal, newTotal float64
	for _, oe := range prev.Experiments {
		ne, ok := newByName[oe.Name]
		if !ok {
			fmt.Printf("%-10s %12.1f %12s %9s\n", oe.Name, oe.WallMillis, "-", "-")
			continue
		}
		mark := ""
		if oe.OutputSHA256 != ne.OutputSHA256 {
			mark = "  OUTPUT HASH MISMATCH"
			mismatches++
		}
		fmt.Printf("%-10s %12.1f %12.1f %8.2fx%s\n",
			oe.Name, oe.WallMillis, ne.WallMillis, oe.WallMillis/ne.WallMillis, mark)
		oldTotal += oe.WallMillis
		newTotal += ne.WallMillis
	}
	if newTotal > 0 {
		fmt.Printf("%-10s %12.1f %12.1f %8.2fx\n", "total", oldTotal, newTotal, oldTotal/newTotal)
	}
	printCacheDiff(prev, cur)
	if mismatches > 0 {
		fatalf("%d experiment(s) changed output between the reports", mismatches)
	}
}

// budgetFamily is one named group of experiments with a summed
// wall-clock ceiling.
type budgetFamily struct {
	Name        string   `json:"name"`
	Experiments []string `json:"experiments"`
	WallMS      float64  `json:"wall_ms"`
	Rationale   string   `json:"rationale"`
}

type budgetFile struct {
	Note            string         `json:"note"`
	MaxTotalAllocMB float64        `json:"max_total_alloc_mb"`
	AllocRationale  string         `json:"alloc_rationale"`
	Families        []budgetFamily `json:"families"`
}

// enforceBudgets gates the last run of reportPath against the budget
// file: every family's summed wall-clock must stay under its ceiling
// and the run's cumulative allocation under the cap. A missing
// experiment or an interrupted/partial/failed run fails the gate.
func enforceBudgets(budgetsPath, reportPath string) {
	data, err := os.ReadFile(budgetsPath)
	if err != nil {
		fatalf("%v", err)
	}
	var b budgetFile
	if err := json.Unmarshal(data, &b); err != nil {
		fatalf("%s: %v", budgetsPath, err)
	}
	if len(b.Families) == 0 {
		fatalf("%s defines no families", budgetsPath)
	}
	runs := loadRuns(reportPath)
	r := runs[len(runs)-1]
	if r.Interrupted || r.Partial || r.Error != "" {
		fatalf("last run of %s is incomplete (interrupted=%v partial=%v error=%q); budgets need a full run",
			reportPath, r.Interrupted, r.Partial, r.Error)
	}
	wall := map[string]float64{}
	for _, e := range r.Experiments {
		wall[e.Name] = e.WallMillis
	}
	fmt.Printf("enforcing %s against %s (%s)\n\n", budgetsPath, reportPath, describe(r))
	fmt.Printf("%-10s %12s %12s %9s\n", "family", "spent ms", "budget ms", "")
	over := 0
	for _, f := range b.Families {
		var spent float64
		for _, name := range f.Experiments {
			ms, ok := wall[name]
			if !ok {
				fatalf("family %s: experiment %s missing from the report", f.Name, name)
			}
			spent += ms
		}
		mark := "ok"
		if spent > f.WallMS {
			mark = "OVER BUDGET"
			over++
		}
		fmt.Printf("%-10s %12.1f %12.1f   %s\n", f.Name, spent, f.WallMS, mark)
	}
	if b.MaxTotalAllocMB > 0 {
		mark := "ok"
		if r.Runtime.TotalAllocMB > b.MaxTotalAllocMB {
			mark = "OVER BUDGET"
			over++
		}
		fmt.Printf("%-10s %12.1f %12.1f   %s  (MB allocated)\n", "alloc", r.Runtime.TotalAllocMB, b.MaxTotalAllocMB, mark)
	}
	if r.Replay != nil {
		fmt.Printf("\nbatched retiming: %d batches / %d configs, %d solo fallbacks\n",
			r.Replay.Batches, r.Replay.BatchConfigs, r.Replay.BatchFallbacks)
		if hasClaims(r.Replay) {
			fmt.Printf("work claiming: %d claims, %d steals, %d expired leases, %d duplicate recordings suppressed\n",
				r.Replay.Claims, r.Replay.Steals, r.Replay.ExpiredLeases, r.Replay.DupSuppressed)
		}
	}
	if over > 0 {
		fatalf("%d budget(s) exceeded — investigate before raising perf/budgets.json", over)
	}
}

// printCacheDiff renders the per-tier cache counters of both runs, so a
// wall-clock win can be attributed: a warm disk tier shows up as zero
// recordings and nonzero disk hits, not as a simulator speedup.
func printCacheDiff(prev, cur run) {
	if prev.Replay == nil && cur.Replay == nil {
		return
	}
	row := func(name string, get func(*replayReport) string) {
		old, new := "-", "-"
		if prev.Replay != nil {
			old = get(prev.Replay)
		}
		if cur.Replay != nil {
			new = get(cur.Replay)
		}
		fmt.Printf("%-16s %12s %12s\n", name, old, new)
	}
	count := func(f func(*replayReport) int64) func(*replayReport) string {
		return func(r *replayReport) string { return fmt.Sprintf("%d", f(r)) }
	}
	fmt.Printf("\n%-16s %12s %12s\n", "cache", "old", "new")
	row("recordings", count(func(r *replayReport) int64 { return r.Recordings }))
	row("replays", count(func(r *replayReport) int64 { return r.Replays }))
	row("compiles", count(func(r *replayReport) int64 { return r.Compiles }))
	row("profiles", count(func(r *replayReport) int64 { return r.Profiles }))
	row("batches", count(func(r *replayReport) int64 { return r.Batches }))
	row("batch configs", count(func(r *replayReport) int64 { return r.BatchConfigs }))
	row("batch fallbacks", count(func(r *replayReport) int64 { return r.BatchFallbacks }))
	row("mem hits", count(func(r *replayReport) int64 { return r.MemHits }))
	row("mem misses", count(func(r *replayReport) int64 { return r.MemMisses }))
	row("disk hits", count(func(r *replayReport) int64 { return r.DiskHits }))
	row("disk misses", count(func(r *replayReport) int64 { return r.DiskMisses }))
	row("disk writes", count(func(r *replayReport) int64 { return r.DiskWrites }))
	row("disk load ms", func(r *replayReport) string { return fmt.Sprintf("%.1f", r.DiskLoadMS) })
	if hasRemote(prev.Replay) || hasRemote(cur.Replay) {
		row("remote hits", count(func(r *replayReport) int64 { return r.RemoteHits }))
		row("remote misses", count(func(r *replayReport) int64 { return r.RemoteMisses }))
		row("remote writes", count(func(r *replayReport) int64 { return r.RemoteWrites }))
		row("remote load ms", func(r *replayReport) string { return fmt.Sprintf("%.1f", r.RemoteLoadMS) })
	}
	if hasClaims(prev.Replay) || hasClaims(cur.Replay) {
		row("claims", count(func(r *replayReport) int64 { return r.Claims }))
		row("steals", count(func(r *replayReport) int64 { return r.Steals }))
		row("expired leases", count(func(r *replayReport) int64 { return r.ExpiredLeases }))
		row("dup suppressed", count(func(r *replayReport) int64 { return r.DupSuppressed }))
	}
	printPerWorker(cur)
	switch {
	case cur.Replay == nil:
	case cur.Replay.Recordings == 0 && cur.Replay.DiskHits > 0:
		fmt.Printf("new run was warm: every result served from the disk tier\n")
	case cur.Replay.DiskWrites > 0 && cur.Replay.DiskHits == 0:
		fmt.Printf("new run was cold: recorded fresh traces and populated the disk tier\n")
	}
}

// hasClaims reports whether a replay section carries work-claiming
// counters (only sharded runs do).
func hasClaims(r *replayReport) bool {
	return r != nil && (r.Claims != 0 || r.Steals != 0 || r.ExpiredLeases != 0 || r.DupSuppressed != 0)
}

// hasRemote reports whether a replay section touched a remote blob
// tier (only -remote runs do).
func hasRemote(r *replayReport) bool {
	return r != nil && (r.RemoteHits != 0 || r.RemoteMisses != 0 || r.RemoteWrites != 0 || r.RemoteLoadMS != 0)
}

// printPerWorker renders the per-worker section of a merged run.
func printPerWorker(r run) {
	if len(r.PerWorker) == 0 {
		return
	}
	fmt.Printf("\n%-10s %12s %12s %8s %8s %8s %14s\n",
		"worker", "wall ms", "recordings", "claims", "steals", "expired", "dup suppressed")
	for _, w := range r.PerWorker {
		rec, claims, steals, expired, dup := int64(0), int64(0), int64(0), int64(0), int64(0)
		if w.Replay != nil {
			rec, claims, steals = w.Replay.Recordings, w.Replay.Claims, w.Replay.Steals
			expired, dup = w.Replay.ExpiredLeases, w.Replay.DupSuppressed
		}
		exps := ""
		if len(w.Experiments) > 0 {
			exps = "  " + strings.Join(w.Experiments, ",")
		}
		fmt.Printf("%-10s %12.1f %12d %8d %8d %8d %14d%s\n",
			w.Worker, w.TotalMillis, rec, claims, steals, expired, dup, exps)
	}
}

// mergeParts reassembles the last run of each partial report file into
// one merged run appended to outPath.
func mergeParts(outPath string, paths []string) {
	var parts []run
	for _, p := range paths {
		runs := loadRuns(p)
		parts = append(parts, runs[len(runs)-1])
	}
	merged, err := benchreport.Merge(parts, harness.ExperimentNames())
	if err != nil {
		fatalf("%v", err)
	}
	if err := benchreport.Append(outPath, merged); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("merged %d partial report(s) into %s: %d experiment(s)\n",
		len(parts), outPath, len(merged.Experiments))
	printPerWorker(merged)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
