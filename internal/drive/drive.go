// Package drive is the shared orchestration behind cmd/helix-bench and
// cmd/helix-explore. Both tools reduce to the same shape — plan the
// trace work of a list of named, deterministic, claim-partitionable
// experiments, execute that plan, then render the experiments — in one
// of two modes, so the modes live here once:
//
//   - solo: execute the whole plan in one harness.RunPlan call, then
//     render every experiment in-process, in order.
//   - worker (-shard i/n): coordinate with sibling workers through an
//     artifact.Claims substrate — atomic claim files in a shared
//     -cachedir, or the claim table of a -remote helix-serve daemon
//     when workers share no filesystem — and append a partial report;
//     `go run ./scripts -merge` reassembles the partial reports.
//
// The flag surface (RegisterFlags), shard/runid validation, the
// harness Env the flags describe, claimer construction, plan execution
// and hash verification are all here; the tools contribute only their
// planning (which experiments exist and which work units they need)
// through a Plan built on that Env.
package drive

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"helixrc/internal/artifact"
	"helixrc/internal/benchreport"
	"helixrc/internal/cliutil"
	"helixrc/internal/harness"
)

// Options is the shared orchestration flag surface. RegisterFlags
// registers the flags every tool shares; the per-tool fields (Cores,
// CellTimeout) are bound by the tools that expose them and reported as
// zero values by the ones that don't.
type Options struct {
	Parallel    int
	Shard       string
	RunID       string
	Lease       time.Duration
	JSONOut     bool
	JSONFile    string
	CacheBudget int64 // MB
	Verify      string
	Label       string
	Timeout     time.Duration
	Quiet       bool
	CacheDir    string
	CacheClear  bool
	Remote      string

	// Tool-bound fields (not registered by RegisterFlags).
	Cores       int
	CellTimeout time.Duration
}

// RegisterFlags registers the shared flags on the default flag set.
// what names the overall run in help text ("evaluation", "sweep");
// prefix names the default report file ("BENCH", "EXPLORE").
func RegisterFlags(o *Options, what, prefix string) {
	flag.IntVar(&o.Parallel, "parallel", 0, "in-process worker count (0 = all CPUs, 1 = sequential)")
	flag.StringVar(&o.Shard, "shard", "", "run as worker i of n (\"i/n\"); requires -runid, -jsonfile, and -cachedir or -remote")
	flag.StringVar(&o.RunID, "runid", "", fmt.Sprintf("work-claiming scope for -shard workers; pick a fresh value per %s", what))
	flag.DurationVar(&o.Lease, "lease", time.Minute, "work-claim lease: a crashed worker's claims become stealable after this long")
	flag.BoolVar(&o.JSONOut, "json", false, fmt.Sprintf("append a machine-readable report to %s_<date>.json", prefix))
	flag.StringVar(&o.JSONFile, "jsonfile", "", fmt.Sprintf("append the machine-readable report to this file instead of %s_<date>.json (implies -json)", prefix))
	flag.Int64Var(&o.CacheBudget, "cachebudget", harness.DefaultCacheBudget>>20, "harness memo-cache byte budget in MB (0 = unbounded)")
	flag.StringVar(&o.Verify, "verify", "", fmt.Sprintf("%s_*.json file to verify output hashes against (exit 1 on mismatch)", prefix))
	flag.StringVar(&o.Label, "label", "", "free-form label recorded in the JSON report")
	flag.DurationVar(&o.Timeout, "timeout", 0, "bound the whole run's wall clock (0 = none)")
	flag.BoolVar(&o.Quiet, "quiet", false, "silence engine diagnostics (cache evictions)")
	flag.StringVar(&o.CacheDir, "cachedir", "", "disk tier for recorded traces and baseline results; a warm run re-times them without re-simulating")
	flag.BoolVar(&o.CacheClear, "cacheclear", false, "wipe the -cachedir disk tier before running")
	flag.StringVar(&o.Remote, "remote", "", "helix-serve blob backend base URL (http://host:port); workers share recordings and claims through it, and a dead backend degrades to silent cache misses")
}

// Experiment is one claim-partitionable unit of a Plan: a stable name
// (report + completeness identity), the key its whole-experiment claim
// is filed under, and the renderer. Run must be deterministic — the
// merge rejects two workers disagreeing on an output hash.
type Experiment struct {
	Name     string
	ClaimKey string
	Run      func(ctx context.Context) (string, error)
}

// Plan is what a tool contributes to a run: the selected experiments
// in canonical order, rendered by the run's harness Env, the wording of
// its messages, and hooks for planning the work units and adding report
// sections.
type Plan struct {
	// What names the report in messages ("benchmark", "explore");
	// Units the experiment plural ("experiment(s)", "famil(ies)");
	// IncompleteWhat the overall run ("evaluation", "sweep").
	What, Units, IncompleteWhat string
	// ReportPrefix names the default report file ("BENCH", "EXPLORE").
	ReportPrefix string
	// Experiments is the selected work, in canonical order.
	Experiments []Experiment
	// Work optionally plans the trace work units of the selected
	// experiments; the Env's RunPlan executes them before the first
	// experiment renders.
	Work func(ctx context.Context) ([]harness.WorkUnit, error)
	// Attach optionally adds tool-specific sections to a local report.
	Attach func(r *benchreport.Report)
	// Banner renders the completion message of a clean solo run; return
	// "" to stay quiet.
	Banner func(total time.Duration) string
}

// Run validates the options, builds the harness Env they describe and
// the tool's Plan on it, and executes the plan in this process,
// returning the process exit code. It owns the signal contract:
// SIGINT/SIGTERM (and -timeout expiry) cancel in-flight work — workers
// drain, reports are still written, flagged interrupted.
func Run(o *Options, plan func(*harness.Env) *Plan) int {
	if o.Remote != "" {
		base, err := cliutil.CheckRemote(o.Remote)
		if err != nil {
			log.Fatal(err)
		}
		o.Remote = base
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	return runLocal(ctx, o, plan)
}

// newClaims builds the claim substrate of one -shard worker: the
// daemon's claim table when a -remote backend is configured (workers
// may share no filesystem), the cache-dir claim files otherwise.
func newClaims(o *Options) artifact.Claims {
	owner := fmt.Sprintf("shard %s pid%d", o.Shard, os.Getpid())
	if o.Remote != "" {
		return artifact.NewRemoteClaimer(o.Remote, o.RunID, owner, o.Lease)
	}
	return artifact.NewClaimer(filepath.Join(o.CacheDir, "claims", o.RunID), owner, o.Lease)
}

// runLocal executes the plan in this process: the default solo mode,
// or one -shard worker of a sharded run.
func runLocal(ctx context.Context, o *Options, plan func(*harness.Env) *Plan) int {
	if o.Quiet {
		artifact.SetQuiet()
	}
	env, err := cliutil.SetupCache(harness.Options{
		Parallelism: o.Parallel, CellTimeout: o.CellTimeout, CacheBudget: o.CacheBudget << 20,
		CacheDir: o.CacheDir, Remote: o.Remote,
	}, o.CacheClear)
	if err != nil {
		log.Fatal(err)
	}
	p := plan(env)

	var claims artifact.Claims
	if o.Shard != "" {
		if _, _, err := parseShard(o.Shard); err != nil {
			log.Fatal(err)
		}
		if o.RunID == "" || o.JSONFile == "" || (o.CacheDir == "" && o.Remote == "") {
			log.Fatalf("-shard requires -runid (a value all workers of this %s share, fresh per %s), -jsonfile (this worker's partial report), and -cachedir or -remote (the shared store workers coordinate through)",
				p.IncompleteWhat, p.IncompleteWhat)
		}
		claims = newClaims(o)
	}

	var wantSHA map[string]string
	if o.Verify != "" {
		var err error
		if wantSHA, err = benchreport.ExpectedHashes(o.Verify); err != nil {
			log.Fatalf("loading %s: %v", o.Verify, err)
		}
	}

	start := time.Now()

	// Execute the plan before any experiment renders. Solo, RunPlan does
	// nothing under per-cell deadlines, so the plan, which compiles, is
	// skipped too. Sharded, each worker's plan lists the units missing
	// when it planned, and the claims partition the recordings; units
	// are idempotent, so plans that differ by work finished since still
	// claim correctly.
	if p.Work != nil && (claims != nil || o.CellTimeout <= 0) {
		if units, err := p.Work(ctx); err != nil {
			log.Printf("planning work units: %v (continuing without the plan)", err)
		} else {
			env.RunPlan(ctx, units, claims)
		}
	}

	reports, mismatches, interrupted, runErr := runExperiments(ctx, o, p, claims, wantSHA)
	total := time.Since(start)

	if o.JSONOut || o.JSONFile != "" {
		if err := appendLocalReport(o, p, env, claims, reports, total, interrupted, runErr); err != nil {
			log.Fatalf("writing %s report: %v", p.What, err)
		}
	}

	if runErr != nil {
		log.Printf("%v", runErr)
		return 1
	}
	if interrupted {
		log.Printf("interrupted after %.1fs with %d %s complete", total.Seconds(), len(reports), p.Units)
		return 1
	}
	if mismatches > 0 {
		log.Printf("verify: %d %s diverge from %s", mismatches, p.Units, o.Verify)
		return 1
	}
	if o.Shard == "" && p.Banner != nil {
		if b := p.Banner(total); b != "" {
			fmt.Println(strings.Repeat("=", 60))
			fmt.Println(b)
		}
	}
	return 0
}

// runExperiments drives the plan's experiments. Without claims they
// run in order, stopping at the first failure (the single-process
// contract). With claims, experiments are claimed whole through the
// shared substrate: each worker renders the experiments it wins, skips
// the ones another worker finished, polls the ones still held (so a
// crashed holder's lease can expire and be stolen), and keeps going
// past individual failures — some other experiment's worker may still
// need this one to participate.
func runExperiments(ctx context.Context, o *Options, p *Plan, claims artifact.Claims, wantSHA map[string]string) (reports []benchreport.Experiment, mismatches int, interrupted bool, runErr error) {
	if claims == nil {
		for _, e := range p.Experiments {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			rep, err := runOne(ctx, o, e, wantSHA, &mismatches)
			if err != nil {
				if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					interrupted = true
					break
				}
				runErr = err
				break
			}
			reports = append(reports, rep)
		}
		return
	}

	done := make(map[string]bool, len(p.Experiments))
	for len(done) < len(p.Experiments) {
		if ctx.Err() != nil {
			interrupted = true
			return
		}
		progress := false
		for _, e := range p.Experiments {
			if done[e.Name] || ctx.Err() != nil {
				continue
			}
			lease, st, err := claims.Acquire(e.ClaimKey)
			if err != nil {
				// Claim substrate unusable (unwritable directory, dead
				// daemon): run it ourselves. Worst case is a duplicated
				// experiment, which the merge accepts as long as the
				// outputs agree (and they do — byte-identical).
				lease, st = nil, artifact.ClaimAcquired
			}
			switch st {
			case artifact.ClaimAcquired:
				rep, err := runOne(ctx, o, e, wantSHA, &mismatches)
				if err != nil {
					if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
						if lease != nil {
							lease.Release() // let a surviving worker rerun it
						}
						interrupted = true
						return
					}
					if lease != nil {
						lease.Done("error: " + err.Error())
					}
					runErr = errors.Join(runErr, err)
				} else {
					if lease != nil {
						lease.Done(rep.OutputSHA256)
					}
					reports = append(reports, rep)
				}
				done[e.Name] = true
				progress = true
			case artifact.ClaimDone:
				done[e.Name] = true
				progress = true
			case artifact.ClaimHeld:
				// revisit next pass
			}
		}
		if !progress {
			select {
			case <-ctx.Done():
				interrupted = true
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	return
}

// runOne renders one experiment, prints it, and verifies its hash.
func runOne(ctx context.Context, o *Options, e Experiment, wantSHA map[string]string, mismatches *int) (benchreport.Experiment, error) {
	expStart := time.Now()
	out, err := e.Run(ctx)
	if err != nil {
		return benchreport.Experiment{}, fmt.Errorf("%s: %w", e.Name, err)
	}
	wall := time.Since(expStart)
	fmt.Printf("==== %s ====\n%s\n", e.Name, out)
	sha := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
	verifyOne(e.Name, sha, wantSHA, o.Verify, mismatches)
	return benchreport.Experiment{
		Name:         e.Name,
		WallMillis:   float64(wall.Microseconds()) / 1e3,
		OutputSHA256: sha,
		Output:       out,
		Partial:      harness.IsPartial(out),
	}, nil
}

func verifyOne(name, sha string, wantSHA map[string]string, verifyPath string, mismatches *int) {
	if wantSHA == nil {
		return
	}
	switch want, ok := wantSHA[name]; {
	case !ok:
		fmt.Printf("verify %s: no reference hash in %s (skipped)\n", name, verifyPath)
	case want != sha:
		fmt.Printf("verify %s: MISMATCH (want %s, got %s)\n", name, short(want), short(sha))
		*mismatches++
	default:
		fmt.Printf("verify %s: ok\n", name)
	}
}

// short abbreviates a hash for display; reference files are not
// trusted to carry full-length hashes.
func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// parseShard validates an "i/n" shard label (1-based).
func parseShard(s string) (i, n int, err error) {
	idx, count, ok := strings.Cut(s, "/")
	if ok {
		i, _ = strconv.Atoi(idx)
		n, _ = strconv.Atoi(count)
	}
	if !ok || i < 1 || n < 1 || i > n {
		return 0, 0, fmt.Errorf("-shard %q: want i/n with 1 <= i <= n", s)
	}
	return i, n, nil
}
