package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"helixrc/internal/benchreport"
	"helixrc/internal/harness"
	"helixrc/internal/irgen"
)

// cli is one helix-bench or helix-explore command line and the
// experiments whose output hashes it must verify.
type cli struct {
	bin  string
	args []string
	want []string
}

// evalCLI is the full evaluation at the default parallelism, verified
// against the checked-in report (fig9 alone with -quick).
func (e *env) evalCLI(quick bool) cli {
	c := cli{bin: "helix-bench", args: []string{"-quiet", "-verify", e.path(evalRef)}, want: harness.ExperimentNames()}
	if quick {
		c.args = append(c.args, "-only", "fig9")
		c.want = []string{"fig9"}
	}
	return c
}

// exploreCLI is the wide sweep — every family × 4 core counts × 5
// alias tiers × 6 link latencies × 4 signal depths — verified against
// bench/testdata/EXPLORE_wide.json. With -quick it is the 4-point
// pointer-chase grid of EXPLORE_2026-08-07.json.
func (e *env) exploreCLI(quick bool) cli {
	args := []string{"-quiet", "-pack", e.path("scenarios")}
	if quick {
		return cli{bin: "helix-explore",
			args: append(args, "-family", "pointer-chase", "-cores", "2", "-tiers", "1,5", "-links", "1,8", "-signals", "0", "-verify", e.path(smallExploreRef)),
			want: []string{"explore:pointer-chase"}}
	}
	var want []string
	for _, f := range irgen.Families() {
		want = append(want, "explore:"+string(f))
	}
	return cli{bin: "helix-explore",
		args: append(args, "-cores", "2,4,8,16", "-tiers", "1,2,3,4,5", "-links", "1,2,4,8,16,32", "-signals", "0,1,2,5", "-verify", e.path(wideExploreRef)),
		want: want}
}

// command prepares a CLI process in the repository root. Cancelling ctx
// asks the CLI to drain (SIGTERM) and kills it 10s later.
func (e *env) command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, bin), args...)
	cmd.Dir = e.root
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	return cmd
}

// proc is one finished CLI process.
type proc struct {
	start  time.Time
	wall   time.Duration // exec to exit
	rssMB  float64       // peak RSS from the child's rusage
	stdout string
	err    error // non-zero exit, with the tail of stderr
}

// exec runs c with extra flags, verifies its outputs and counts it as
// an operation. Only a process that cannot start is an error; a failed
// run or hash is a failed operation.
func (r *runner) exec(c cli, cat string, extra ...string) (proc, error) {
	args := append(append([]string(nil), c.args...), extra...)
	cmd := r.env.command(r.ctx, c.bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	p := proc{start: time.Now()}
	if err := cmd.Start(); err != nil {
		return p, err
	}
	werr := cmd.Wait()
	p.wall = time.Since(p.start)
	p.rssMB = peakRSSMB(cmd.ProcessState)
	p.stdout = stdout.String()
	if werr != nil {
		p.err = fmt.Errorf("%s %s: %v: %s", c.bin, strings.Join(args, " "), werr, tail(stderr.String()))
	} else {
		p.err = verified(p.stdout, c.want)
	}
	r.tr.span(laneOps, cat, c.bin, p.start, p.wall, map[string]any{"args": strings.Join(args, " ")})
	r.attempt(p.err)
	return p, r.ctx.Err()
}

// peakRSSMB reads the peak resident set size of an exited child.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return 0
}

// verified checks that a run printed "verify <name>: ok" for every
// wanted experiment: the CLI compared each output hash with the
// reference report.
func verified(stdout string, want []string) error {
	ok := map[string]bool{}
	for _, line := range strings.Split(stdout, "\n") {
		if rest, found := strings.CutPrefix(line, "verify "); found {
			if name, good := strings.CutSuffix(rest, ": ok"); good {
				ok[name] = true
			}
		}
	}
	var missing []string
	for _, w := range want {
		if !ok[w] {
			missing = append(missing, w)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("outputs not verified: %s", strings.Join(missing, ", "))
	}
	return nil
}

func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 2000 {
		s = "..." + s[len(s)-2000:]
	}
	return s
}

// measured records one measured process; when traced it also reads the
// per-layer counters of the process's -jsonfile report.
func (r *runner) measured(p proc, report string) error {
	if p.err != nil {
		return nil // counted failed; a failed run is no latency sample
	}
	r.raw["op_p50_ms"] = append(r.raw["op_p50_ms"], ms(p.wall))
	r.raw["peak_rss_mb"] = append(r.raw["peak_rss_mb"], p.rssMB)
	r.busy += p.wall
	r.vals["ops_per_s"] = float64(len(r.raw["op_p50_ms"])) / r.busy.Seconds()
	if report == "" {
		return nil
	}
	runs, err := benchreport.Load(report)
	if err != nil {
		return err
	}
	os.Remove(report)
	os.Remove(report + ".lock")
	r.addReport(runs[len(runs)-1], p.wall)
	return nil
}

// addReport adds one CLI report's counters as per-layer samples.
func (r *runner) addReport(rep benchreport.Report, wall time.Duration) {
	add := func(name string, v float64) { r.raw[name] = append(r.raw[name], v) }
	var expMS float64
	for _, e := range rep.Experiments {
		add("harness.exp."+metricName(e.Name)+"_ms", e.WallMillis)
		expMS += e.WallMillis
	}
	add("harness.warm_ms", rep.TotalMillis-expMS)
	add("cli.overhead_ms", ms(wall)-rep.TotalMillis)
	add("runtime.total_alloc_mb", rep.Runtime.TotalAllocMB)
	add("runtime.num_gc", float64(rep.Runtime.NumGC))
	add("runtime.gc_pause_ms", rep.Runtime.PauseTotalMS)
	if rp := rep.Replay; rp != nil {
		add("harness.batches", float64(rp.Batches))
		add("harness.batch_lanes", float64(rp.BatchConfigs))
		add("harness.batch_fallbacks", float64(rp.BatchFallbacks))
		r.addCache(rp)
	}
}

// addCache adds the recording and artifact-store counters both the CLI
// reports and the daemon's /metrics carry.
func (r *runner) addCache(rp *benchreport.Replay) {
	add := func(name string, v float64) { r.raw[name] = append(r.raw[name], v) }
	add("harness.recordings", float64(rp.Recordings))
	add("harness.replays", float64(rp.Replays))
	add("artifact.mem_hits", float64(rp.MemHits))
	add("artifact.mem_misses", float64(rp.MemMisses))
	if n := rp.MemHits + rp.MemMisses; n > 0 {
		add("artifact.mem_hit_ratio", float64(rp.MemHits)/float64(n))
	}
	add("artifact.disk_hits", float64(rp.DiskHits))
	add("artifact.disk_writes", float64(rp.DiskWrites))
	add("artifact.disk_load_total_ms", rp.DiskLoadMS)
}

// reportFlag returns the -jsonfile flag of a traced measured process.
func (r *runner) reportFlag() (path string, flags []string) {
	if r.tr == nil {
		return "", nil
	}
	r.dirs++
	path = filepath.Join(r.work, fmt.Sprintf("report-%d.json", r.dirs))
	return path, []string{"-jsonfile", path}
}

// runEvalCold: every process starts on a fresh, empty cache directory,
// so it records every trace and writes every envelope to the disk
// tier. Set-up is an unmeasured fig9 run, which brings the binary and
// the reference report into the page cache.
func runEvalCold(r *runner) error {
	cold := func(c cli, cat string, extra ...string) (proc, error) {
		dir, err := r.freshDir("cache")
		if err != nil {
			return proc{}, err
		}
		p, err := r.exec(c, cat, append([]string{"-cachedir", dir}, extra...)...)
		// Settle the deletion's writeback before the next process times
		// its own fsyncs.
		os.RemoveAll(dir)
		syscall.Sync()
		return p, err
	}
	for i := 0; i < r.setups; i++ {
		p, err := cold(r.env.evalCLI(true), "setup")
		if err != nil {
			return err
		}
		r.raw["setup_s"] = append(r.raw["setup_s"], p.wall.Seconds())
	}
	c := r.env.evalCLI(r.quick)
	return r.measure(2, func() error {
		report, flags := r.reportFlag()
		p, err := cold(c, "op", flags...)
		if err != nil {
			return err
		}
		return r.measured(p, report)
	})
}

// runEvalWarm: set-up fills a cache directory with one cold run; every
// measured process then reads that directory, so it records nothing,
// loads traces and results from the disk tier, and recompiles (compiles
// are memory-only).
func runEvalWarm(r *runner) error {
	c := r.env.evalCLI(r.quick)
	var warm string
	for i := 0; i < r.setups; i++ {
		if warm != "" {
			os.RemoveAll(warm)
		}
		dir, err := r.freshDir("cache")
		if err != nil {
			return err
		}
		warm = dir
		p, err := r.exec(c, "setup", "-cachedir", warm)
		if err != nil {
			return err
		}
		r.raw["setup_s"] = append(r.raw["setup_s"], p.wall.Seconds())
	}
	if err := r.measure(2, func() error {
		report, flags := r.reportFlag()
		p, err := r.exec(c, "op", append([]string{"-cachedir", warm}, flags...)...)
		if err != nil {
			return err
		}
		return r.measured(p, report)
	}); err != nil {
		return err
	}
	if r.tr != nil {
		if rec := r.raw["harness.recordings"]; len(rec) > 0 && median(rec) != 0 {
			r.problem("eval-warm recorded %v traces on a filled cache (want 0)", rec)
		}
	}
	return nil
}

// runExploreSweep: every process sweeps the wide grid from scratch (no
// cache directory), so it is dominated by batched replay. Set-up is
// one unmeasured sweep.
func runExploreSweep(r *runner) error {
	c := r.env.exploreCLI(r.quick)
	for i := 0; i < r.setups; i++ {
		p, err := r.exec(c, "setup")
		if err != nil {
			return err
		}
		r.raw["setup_s"] = append(r.raw["setup_s"], p.wall.Seconds())
	}
	return r.measure(2, func() error {
		report, flags := r.reportFlag()
		p, err := r.exec(c, "op", flags...)
		if err != nil {
			return err
		}
		return r.measured(p, report)
	})
}
