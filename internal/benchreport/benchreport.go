// Package benchreport is the machine-readable benchmark report format
// shared by cmd/helix-bench (which writes reports) and scripts/benchdiff
// (which diffs, merges and budget-gates them). A BENCH_<date>.json file
// holds a JSON array of runs; each helix-bench invocation appends one.
//
// Two multi-process concerns live here rather than in the tools:
//
//   - Append serializes concurrent read-modify-write cycles of one
//     report file with an advisory file lock (plus the existing atomic
//     rename), so parallel workers appending to the same file never
//     interleave or drop a report.
//   - Merge deterministically reassembles the partial reports written
//     by sharded workers into one report: experiments in canonical
//     order, per-worker counters preserved, aggregate counters summed,
//     and any disagreement between two workers' outputs for the same
//     experiment surfaced as an error instead of silently picking one.
package benchreport

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"syscall"

	"helixrc/internal/atomicio"
)

// Experiment records one experiment's wall-clock and output.
type Experiment struct {
	Name         string  `json:"name"`
	WallMillis   float64 `json:"wall_ms"`
	OutputSHA256 string  `json:"output_sha256"`
	Output       string  `json:"output"`
	// Partial marks a figure with timed-out, degraded cells (the output
	// carries the PARTIAL FIGURE note naming them).
	Partial bool `json:"partial,omitempty"`
}

// Replay summarizes how harness simulations were served: fresh
// recordings vs trace replays, compilations issued and the training
// profiles they shared, batched-retiming counters, work-claiming
// counters (sharded runs), per-tier artifact-store counters, and cache
// pressure.
type Replay struct {
	Recordings     int64   `json:"recordings"`
	Replays        int64   `json:"replays"`
	Compiles       int64   `json:"compiles"`
	Profiles       int64   `json:"profiles"`
	Batches        int64   `json:"batches"`
	BatchConfigs   int64   `json:"batch_configs"`
	BatchFallbacks int64   `json:"batch_fallbacks"`
	Claims         int64   `json:"claims,omitempty"`
	Steals         int64   `json:"steals,omitempty"`
	ExpiredLeases  int64   `json:"expired_leases,omitempty"`
	DupSuppressed  int64   `json:"dup_suppressed_recordings,omitempty"`
	MemHits        int64   `json:"mem_hits"`
	MemMisses      int64   `json:"mem_misses"`
	DiskHits       int64   `json:"disk_hits,omitempty"`
	DiskMisses     int64   `json:"disk_misses,omitempty"`
	DiskWrites     int64   `json:"disk_writes,omitempty"`
	DiskLoadMS     float64 `json:"disk_load_ms,omitempty"`
	RemoteHits     int64   `json:"remote_hits,omitempty"`
	RemoteMisses   int64   `json:"remote_misses,omitempty"`
	RemoteWrites   int64   `json:"remote_writes,omitempty"`
	RemoteLoadMS   float64 `json:"remote_load_ms,omitempty"`
	CacheEvictions int64   `json:"cache_evictions"`
	CacheEvictedMB float64 `json:"cache_evicted_mb"`
}

// add accumulates o into r (for merged aggregate counters).
func (r *Replay) add(o *Replay) {
	if o == nil {
		return
	}
	r.Recordings += o.Recordings
	r.Replays += o.Replays
	r.Compiles += o.Compiles
	r.Profiles += o.Profiles
	r.Batches += o.Batches
	r.BatchConfigs += o.BatchConfigs
	r.BatchFallbacks += o.BatchFallbacks
	r.Claims += o.Claims
	r.Steals += o.Steals
	r.ExpiredLeases += o.ExpiredLeases
	r.DupSuppressed += o.DupSuppressed
	r.MemHits += o.MemHits
	r.MemMisses += o.MemMisses
	r.DiskHits += o.DiskHits
	r.DiskMisses += o.DiskMisses
	r.DiskWrites += o.DiskWrites
	r.DiskLoadMS += o.DiskLoadMS
	r.RemoteHits += o.RemoteHits
	r.RemoteMisses += o.RemoteMisses
	r.RemoteWrites += o.RemoteWrites
	r.RemoteLoadMS += o.RemoteLoadMS
	r.CacheEvictions += o.CacheEvictions
	r.CacheEvictedMB += o.CacheEvictedMB
}

// ServeEndpoint summarizes one endpoint's (or job kind's) latency and
// error profile over a measurement window. Quantiles come from the
// server's log-bucketed histograms, so they carry the bucket
// resolution (~20%) rather than exact order statistics.
type ServeEndpoint struct {
	Name       string  `json:"name"`
	Count      int64   `json:"count"`
	Errors     int64   `json:"errors"`
	Sheds      int64   `json:"sheds,omitempty"`
	P50Millis  float64 `json:"p50_ms"`
	P95Millis  float64 `json:"p95_ms"`
	P99Millis  float64 `json:"p99_ms"`
	MaxMillis  float64 `json:"max_ms"`
	MeanMillis float64 `json:"mean_ms"`
}

// Serve is a helix-serve metrics snapshot: admission-control state,
// per-endpoint HTTP latencies, per-kind job execution latencies, and
// the artifact-store counters accumulated since the daemon started.
// The /metrics endpoint renders exactly this shape, and helix-load
// embeds the final snapshot in its report so scripts/slocheck gates
// the same numbers an operator would scrape.
type Serve struct {
	UptimeMillis  float64         `json:"uptime_ms"`
	Concurrency   int             `json:"concurrency"`
	QueueCap      int             `json:"queue_cap"`
	QueueDepth    int64           `json:"queue_depth"`
	QueueDepthMax int64           `json:"queue_depth_max"`
	Draining      bool            `json:"draining,omitempty"`
	Submitted     int64           `json:"submitted"`
	Completed     int64           `json:"completed"`
	Failed        int64           `json:"failed"`
	Canceled      int64           `json:"canceled"`
	Shed          int64           `json:"shed"`
	Endpoints     []ServeEndpoint `json:"endpoints,omitempty"`
	Jobs          []ServeEndpoint `json:"jobs,omitempty"`
	Replay        *Replay         `json:"replay,omitempty"`
}

// LoadSummary is the client side of a helix-load run: the request mix,
// what the generator observed end to end (submit -> poll -> result),
// and how many figure outputs disagreed with the reference hashes.
type LoadSummary struct {
	Mix            string        `json:"mix"`
	Kind           string        `json:"kind"`
	HotKey         string        `json:"hot_key,omitempty"`
	HotFrac        float64       `json:"hot_frac,omitempty"`
	Clients        int           `json:"clients"`
	Seed           int64         `json:"seed"`
	DurationMillis float64       `json:"duration_ms"`
	Requests       int64         `json:"requests"`
	Completed      int64         `json:"completed"`
	Errors         int64         `json:"errors"`
	Sheds          int64         `json:"sheds"`
	HashMismatches int64         `json:"hash_mismatches"`
	Throughput     float64       `json:"throughput_rps"`
	E2E            ServeEndpoint `json:"e2e"`
}

// Runtime captures the Go runtime state at the end of a run.
type Runtime struct {
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumGoroutine int     `json:"num_goroutine"`
	NumGC        uint32  `json:"num_gc"`
	HeapAllocMB  float64 `json:"heap_alloc_mb"`
	TotalAllocMB float64 `json:"total_alloc_mb"`
	PauseTotalMS float64 `json:"gc_pause_total_ms"`
}

// WorkerRun is one worker's contribution inside a merged report.
type WorkerRun struct {
	Worker      string   `json:"worker"` // shard label, e.g. "2/4"
	TotalMillis float64  `json:"total_wall_ms"`
	Experiments []string `json:"experiments,omitempty"` // names this worker generated
	Replay      *Replay  `json:"replay,omitempty"`
}

// Report is one helix-bench invocation (or one merged multi-worker
// evaluation) in a BENCH_<date>.json array.
type Report struct {
	Label     string `json:"label,omitempty"`
	Timestamp string `json:"timestamp"`
	Parallel  int    `json:"parallel"`
	// Workers is the worker-process count of a merged sharded run
	// (absent for single-process runs).
	Workers int `json:"workers,omitempty"`
	// Shard marks a partial report written by one worker ("2/4").
	Shard       string       `json:"shard,omitempty"`
	Cores       int          `json:"cores"`
	TotalMillis float64      `json:"total_wall_ms"`
	Experiments []Experiment `json:"experiments"`
	Replay      *Replay      `json:"replay,omitempty"`
	Runtime     Runtime      `json:"runtime"`
	// PerWorker holds each worker's counters in a merged report.
	PerWorker []WorkerRun `json:"per_worker,omitempty"`
	// Serve holds the helix-serve daemon metrics of a service run
	// (written by helix-load, gated by scripts/slocheck).
	Serve *Serve `json:"serve,omitempty"`
	// Load holds the load generator's client-side summary.
	Load *LoadSummary `json:"load,omitempty"`
	// Explore holds helix-explore's design-space sweep results.
	Explore *Explore `json:"explore,omitempty"`
	// Interrupted marks a run cut short by a signal or -timeout.
	Interrupted bool `json:"interrupted,omitempty"`
	// Partial marks a run where at least one figure degraded cells.
	Partial bool `json:"partial,omitempty"`
	// Error records the failure that ended the run early, if any.
	Error string `json:"error,omitempty"`
}

// Load reads a report file (a JSON array of runs).
func Load(path string) ([]Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []Report
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s is not a run array: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s contains no runs", path)
	}
	return runs, nil
}

// ExpectedHashes builds the experiment -> output_sha256 map from a
// report file. Later runs in the array win, so the reference is the
// most recent recording of each experiment. Interrupted or partial
// runs never contribute reference hashes. helix-bench -verify and
// helix-load -verify both resolve their reference through it.
func ExpectedHashes(path string) (map[string]string, error) {
	runs, err := Load(path)
	if err != nil {
		return nil, err
	}
	want := map[string]string{}
	for _, r := range runs {
		if r.Interrupted || r.Partial || r.Error != "" {
			continue
		}
		for _, e := range r.Experiments {
			want[e.Name] = e.OutputSHA256
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("%s contains no experiment hashes", path)
	}
	return want, nil
}

// Append appends r to the report array at path, creating the file if
// needed. The read-modify-write cycle is guarded twice: an advisory
// lock on <path>.lock serializes concurrent appenders (parallel workers
// writing the same BENCH file queue instead of overwriting each other's
// run), and the final write goes through an atomic rename so a crash
// mid-write leaves either the old array or the new one, never a torn
// file. The lock file is left in place — removing it while another
// appender holds the lock would silently split the lock.
func Append(path string, r Report) error {
	unlock, err := lockFile(path + ".lock")
	if err != nil {
		return err
	}
	defer unlock()
	var runs []Report
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &runs); err != nil {
			return fmt.Errorf("%s is not a run array: %w", path, err)
		}
	}
	runs = append(runs, r)
	data, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(data, '\n'), 0o644)
}

// mergeSection unions one optional section across parts: nil where
// absent, the one carried value where exactly one part (or several
// agreeing parts) has it, an error when parts genuinely conflict.
func mergeSection[T any](parts []Report, what string, get func(*Report) *T) (*T, error) {
	var out *T
	from := ""
	for i := range parts {
		v := get(&parts[i])
		if v == nil {
			continue
		}
		worker := parts[i].Shard
		if worker == "" {
			worker = fmt.Sprintf("%d/%d", i+1, len(parts))
		}
		if out == nil {
			out, from = v, worker
			continue
		}
		if !jsonEqual(out, v) {
			return nil, fmt.Errorf("benchreport: workers %s and %s carry conflicting %s sections", from, worker, what)
		}
	}
	return out, nil
}

// jsonEqual compares two values by their canonical JSON encoding —
// the equality that matters for report sections, since the report is
// its JSON form.
func jsonEqual(a, b any) bool {
	da, ea := json.Marshal(a)
	db, eb := json.Marshal(b)
	return ea == nil && eb == nil && string(da) == string(db)
}

// lockFile takes an exclusive advisory lock on path, blocking until it
// is available, and returns the unlock function. flock is per open file
// description, so goroutines within one process contend exactly like
// separate processes do.
func lockFile(path string) (func(), error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("benchreport: lock %s: %w", path, err)
	}
	for {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("benchreport: flock %s: %w", path, err)
	}
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}

// Merge reassembles the partial reports of a sharded evaluation into
// one report. order fixes the experiment sequence (canonical
// presentation order); every merged experiment must appear in it.
// Duplicated experiments (a stolen lease completed twice) are accepted
// only when both workers produced the same output hash — a divergence
// is an error, never a silent pick. Aggregate counters are summed; each
// worker's own counters survive under PerWorker, in input order.
//
// Optional sections (Serve, Load, Explore) are unioned, not dropped: a
// section carried by any part survives the merge, so merging a serve
// report with a bench report keeps both sides. Two parts carrying the
// same section must agree (deep equality; Explore compares per family)
// — a conflict is an error, never a silent pick.
func Merge(parts []Report, order []string) (Report, error) {
	if len(parts) == 0 {
		return Report{}, fmt.Errorf("benchreport: nothing to merge")
	}
	first := parts[0]
	merged := Report{
		Label:     first.Label,
		Timestamp: first.Timestamp,
		Parallel:  first.Parallel,
		Workers:   len(parts),
		Cores:     first.Cores,
		Replay:    &Replay{},
	}
	pos := make(map[string]int, len(order))
	for i, name := range order {
		pos[name] = i
	}
	byName := map[string]Experiment{}
	ranBy := map[string][]string{}
	var errs []string
	for i, p := range parts {
		worker := p.Shard
		if worker == "" {
			worker = fmt.Sprintf("%d/%d", i+1, len(parts))
		}
		if p.Cores != merged.Cores || p.Parallel != merged.Parallel {
			return Report{}, fmt.Errorf("benchreport: worker %s ran a different configuration (cores=%d parallel=%d) than worker %s",
				worker, p.Cores, p.Parallel, first.Shard)
		}
		w := WorkerRun{Worker: worker, TotalMillis: p.TotalMillis, Replay: p.Replay}
		for _, e := range p.Experiments {
			if _, ok := pos[e.Name]; !ok {
				return Report{}, fmt.Errorf("benchreport: worker %s reports unknown experiment %q", worker, e.Name)
			}
			if prev, ok := byName[e.Name]; ok {
				if prev.OutputSHA256 != e.OutputSHA256 {
					return Report{}, fmt.Errorf("benchreport: workers disagree on %s (%s ran by %v vs %s by %s)",
						e.Name, prev.OutputSHA256[:12], ranBy[e.Name], e.OutputSHA256[:12], worker)
				}
			} else {
				byName[e.Name] = e
			}
			ranBy[e.Name] = append(ranBy[e.Name], worker)
			w.Experiments = append(w.Experiments, e.Name)
		}
		merged.Replay.add(p.Replay)
		merged.Runtime.NumGC += p.Runtime.NumGC
		merged.Runtime.TotalAllocMB += p.Runtime.TotalAllocMB
		merged.Runtime.PauseTotalMS += p.Runtime.PauseTotalMS
		merged.Runtime.HeapAllocMB = max(merged.Runtime.HeapAllocMB, p.Runtime.HeapAllocMB)
		merged.Runtime.NumGoroutine = max(merged.Runtime.NumGoroutine, p.Runtime.NumGoroutine)
		merged.TotalMillis = max(merged.TotalMillis, p.TotalMillis)
		if merged.Label == "" {
			merged.Label = p.Label
		}
		if p.Timestamp > merged.Timestamp {
			merged.Timestamp = p.Timestamp
		}
		merged.Interrupted = merged.Interrupted || p.Interrupted
		merged.Partial = merged.Partial || p.Partial
		if p.Error != "" {
			errs = append(errs, fmt.Sprintf("worker %s: %s", worker, p.Error))
		}
		merged.PerWorker = append(merged.PerWorker, w)
	}
	merged.Runtime.GoVersion = first.Runtime.GoVersion
	merged.Runtime.NumCPU = first.Runtime.NumCPU
	merged.Runtime.GOMAXPROCS = first.Runtime.GOMAXPROCS
	merged.Error = strings.Join(errs, "; ")
	serve, err := mergeSection(parts, "serve", func(p *Report) *Serve { return p.Serve })
	if err != nil {
		return Report{}, err
	}
	merged.Serve = serve
	load, err := mergeSection(parts, "load", func(p *Report) *LoadSummary { return p.Load })
	if err != nil {
		return Report{}, err
	}
	merged.Load = load
	explore, err := mergeExplore(parts)
	if err != nil {
		return Report{}, err
	}
	merged.Explore = explore
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return pos[names[i]] < pos[names[j]] })
	for _, name := range names {
		merged.Experiments = append(merged.Experiments, byName[name])
	}
	return merged, nil
}
