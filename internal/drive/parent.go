package drive

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"helixrc/internal/benchreport"
	"helixrc/internal/cliutil"
)

// runParent forks -workers worker processes and merges their partial
// reports. The parent itself never simulates: it owns the run id
// (which scopes the claims), the lifetime of any temporary cache
// directories, and the deterministic reassembly + verification of the
// merged report.
//
// The workers' shared substrate depends on the flags: by default they
// share a cache directory (a temporary one if -cachedir is not given)
// and coordinate through claim files in it. With -remote they
// coordinate through the daemon's claim table instead — and when no
// -cachedir is given, each worker gets its own disjoint scratch cache
// dir, so the blob backend is the only thing they share (the
// multi-machine topology, exercised on one machine).
func runParent(ctx context.Context, o *Options, p *Plan) int {
	sharedCache := o.CacheDir
	disjoint := o.Remote != "" && o.CacheDir == ""
	var scratchRoot string
	if o.CacheDir == "" {
		tmp, err := os.MkdirTemp("", p.TempCachePattern)
		if err != nil {
			log.Fatalf("creating temporary cache dir: %v", err)
		}
		defer os.RemoveAll(tmp)
		scratchRoot = tmp
		if !disjoint {
			sharedCache = tmp
		}
	} else if o.CacheClear {
		// Clear once, here, rather than racing N children over it.
		if err := cliutil.SetupCacheDir(sharedCache, true); err != nil {
			log.Fatal(err)
		}
	}
	childCache := func(i int) string {
		if disjoint {
			return filepath.Join(scratchRoot, fmt.Sprintf("cache_%d", i))
		}
		return sharedCache
	}
	partialBase := sharedCache
	if disjoint {
		partialBase = scratchRoot
	}

	runid := fmt.Sprintf("r%d-%d", os.Getpid(), time.Now().UnixNano())
	partialDir := filepath.Join(partialBase, "partials", runid)
	if err := os.MkdirAll(partialDir, 0o755); err != nil {
		log.Fatalf("creating %s: %v", partialDir, err)
	}
	// The run's coordination state is worthless after the merge; the
	// artifacts (traces, baselines, results) stay. Remote claims need no
	// cleanup — the daemon's scope table evicts old runs itself.
	defer os.RemoveAll(partialDir)
	if o.Remote == "" {
		defer os.RemoveAll(filepath.Join(sharedCache, "claims", runid))
	}

	exe, err := os.Executable()
	if err != nil {
		log.Fatalf("resolving own binary: %v", err)
	}
	// The workers are the parallelism: children run their cells
	// sequentially, so N workers do not oversubscribe the host, unless
	// the user explicitly asked for hybrid with -parallel.
	childPar := o.Parallel
	if childPar == 0 {
		childPar = 1
	}

	start := time.Now()
	partials := make([]string, o.Workers)
	cmds := make([]*exec.Cmd, o.Workers)
	for i := 1; i <= o.Workers; i++ {
		partials[i-1] = filepath.Join(partialDir, fmt.Sprintf("worker_%d.json", i))
		args := []string{
			"-shard", fmt.Sprintf("%d/%d", i, o.Workers),
			"-runid", runid,
			"-cachedir", childCache(i),
			"-jsonfile", partials[i-1],
			"-parallel", strconv.Itoa(childPar),
			"-lease", o.Lease.String(),
			"-cachebudget", strconv.FormatInt(o.CacheBudget, 10),
		}
		if o.Remote != "" {
			args = append(args, "-remote", o.Remote)
		}
		if o.Quiet {
			args = append(args, "-quiet")
		}
		if o.Label != "" {
			args = append(args, "-label", o.Label)
		}
		if o.Timeout > 0 {
			args = append(args, "-timeout", o.Timeout.String())
		}
		args = append(args, p.ChildArgs...)
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout = io.Discard // the parent reprints the merged figures
		cmd.Stderr = os.Stderr
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.WaitDelay = 15 * time.Second
		if err := cmd.Start(); err != nil {
			log.Fatalf("starting worker %d: %v", i, err)
		}
		cmds[i-1] = cmd
	}
	workerFailures := 0
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "worker %d/%d: %v\n", i+1, o.Workers, err)
			workerFailures++
		}
	}
	total := time.Since(start)

	// Merge whatever partial reports exist — a crashed worker leaves no
	// file, but its stolen experiments appear in a survivor's partial.
	var parts []benchreport.Report
	for i, path := range partials {
		runs, err := benchreport.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "worker %d/%d left no partial report: %v\n", i+1, o.Workers, err)
			continue
		}
		parts = append(parts, runs[len(runs)-1])
	}
	if len(parts) == 0 {
		log.Printf("no worker produced a partial report")
		return 1
	}
	merged, err := benchreport.Merge(parts, p.MergeOrder)
	if err != nil {
		log.Printf("merging partial reports: %v", err)
		return 1
	}
	merged.Workers = o.Workers
	merged.Label = o.Label
	merged.TotalMillis = float64(total.Microseconds()) / 1e3

	var wantSHA map[string]string
	if o.Verify != "" {
		if wantSHA, err = benchreport.ExpectedHashes(o.Verify); err != nil {
			log.Fatalf("loading %s: %v", o.Verify, err)
		}
	}
	mismatches := 0
	for _, e := range merged.Experiments {
		fmt.Printf("==== %s ====\n%s\n", e.Name, e.Output)
		verifyOne(e.Name, e.OutputSHA256, wantSHA, o.Verify, &mismatches)
	}

	// Completeness: every selected experiment must have been rendered by
	// some worker.
	have := make(map[string]bool, len(merged.Experiments))
	for _, e := range merged.Experiments {
		have[e.Name] = true
	}
	var missing []string
	for _, e := range p.Experiments {
		if !have[e.Name] {
			missing = append(missing, e.Name)
		}
	}

	if o.JSONOut || o.JSONFile != "" {
		path := o.JSONFile
		if path == "" {
			path = fmt.Sprintf("%s_%s.json", p.ReportPrefix, time.Now().Format("2006-01-02"))
		}
		if err := benchreport.Append(path, merged); err != nil {
			log.Fatalf("writing %s report: %v", p.What, err)
		}
		fmt.Printf("%s report appended to %s\n", p.What, path)
	}

	switch {
	case merged.Error != "":
		log.Printf("%s", merged.Error)
		return 1
	case len(missing) > 0:
		log.Printf("incomplete %s: missing %s", p.IncompleteWhat, strings.Join(missing, ", "))
		return 1
	case merged.Interrupted:
		log.Printf("interrupted after %.1fs with %d %s complete", total.Seconds(), len(merged.Experiments), p.Units)
		return 1
	case mismatches > 0:
		log.Printf("verify: %d %s diverge from %s", mismatches, p.Units, o.Verify)
		return 1
	case workerFailures > 0:
		log.Printf("%d worker(s) failed (results recovered via lease stealing)", workerFailures)
		return 1
	}
	if p.Banner != nil {
		if b := p.Banner(total, o.Workers); b != "" {
			fmt.Println(strings.Repeat("=", 60))
			fmt.Println(b)
		}
	}
	return 0
}
