// Package harness wires workloads, the HCC compiler and the simulator
// into the experiments of the paper's evaluation (Section 6). Every table
// and figure has a generator here; the root bench_test.go and
// cmd/helix-bench expose them.
//
// All of the harness's state belongs to an Env, built by New from
// Options: the artifact stores that cache compilations, profiles,
// traces, Results and analysis cells, the counters of the work it did,
// and its worker count and cell deadline. Generators, planners and the
// cached entry points are Env methods, so two Envs in one process never
// share a cache entry or a counter; Envs over one cache directory share
// its disk tier. Only the workload builds are shared process-wide:
// registry content is fixed for the process, and a build is only read.
package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"helixrc/internal/artifact"
	"helixrc/internal/benchreport"
	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// Options configures an Env. The zero value runs on GOMAXPROCS workers,
// without cell deadlines, with unbounded memory tiers and no disk or
// remote tier.
type Options struct {
	// Parallelism is the experiment engine's worker count; <= 0 means
	// GOMAXPROCS.
	Parallelism int
	// CellTimeout bounds the wall clock of every experiment cell; <= 0
	// disables the bound. A cell that exceeds its deadline is reaped
	// without aborting its siblings: under a Partials collector
	// (Experiments installs one) it degrades into its zero value and is
	// listed as degraded. Batched warm-ups and RunPlan are skipped while
	// a deadline is set: a traversal serves many cells, so it must not
	// be accounted against any single cell's clock.
	CellTimeout time.Duration
	// CacheBudget bounds the summed estimated size of the memory tiers
	// in bytes, split across the stores by their shares (see stores);
	// least-recently-used entries are evicted past it, with a log line
	// per eviction. <= 0 removes the bound. The CLIs default to
	// DefaultCacheBudget.
	CacheBudget int64
	// CacheDir is the disk tier's root: recorded traces, baseline and
	// replayed Results, and the analysis and TLP cells persist under it
	// and serve later runs at disk-read cost. Compilations and profiles
	// stay memory-only. "" disables the disk tier. The disk tier is never
	// evicted by budget; only ClearDiskCache empties it.
	CacheDir string
	// Remote is the base URL of a helix-serve blob backend, a remote tier
	// for the same stores the disk tier covers, so workers on different
	// machines share recordings. "" disables it. Remote failures are
	// silent misses: a dead daemon degrades to local recomputation.
	Remote string
}

// DefaultCacheBudget is the memory-tier budget the CLIs default to.
// Traces dominate, so they get most of it.
const DefaultCacheBudget = int64(1) << 30

// Env is one configuration of the harness and everything it caches and
// counts. Safe for concurrent use.
type Env struct {
	workers     int           // Options.Parallelism
	cellTimeout time.Duration // Options.CellTimeout

	// The artifact stores (see figures.go and cells.go), listed once in
	// stores.
	traceStore *artifact.Store[*sim.Trace]
	seqStore   *artifact.Store[*sim.Result]
	resStore   *artifact.Store[*sim.Result]
	cellStore  *artifact.Store[*cell]
	profStore  *artifact.Store[*interp.Profile]
	compStore  *artifact.Store[*compEntry]

	// The work counters Stats reports.
	recordings, replays                 atomic.Int64
	compiles, profiles                  atomic.Int64
	batches, batchLanes, batchFallbacks atomic.Int64
}

// New builds an Env: empty memory tiers over the configured disk and
// remote tiers, and zero counters.
func New(o Options) *Env {
	e := &Env{
		workers:     o.Parallelism,
		cellTimeout: o.CellTimeout,
		traceStore:  newTraceStore(),
		seqStore:    newResultStore("baseline"),
		resStore:    newResultStore("result"),
		cellStore:   newCellStore(),
		profStore:   artifact.NewStore[*interp.Profile]("profile", cacheScheme, profCost, nil),
		compStore:   artifact.NewStore[*compEntry]("compile", cacheScheme, compCost, nil),
	}
	for _, s := range e.stores() {
		b := o.CacheBudget * s.share / 1024
		if o.CacheBudget > 0 {
			b = max(b, 1) // a budget of 0 would lift the bound
		}
		s.SetBudget(b)
		s.SetDir(o.CacheDir)
		s.SetRemote(o.Remote)
	}
	return e
}

// store is what an Env does alike to each of its artifact stores.
type store interface {
	SetBudget(int64)
	SetDir(string)
	SetRemote(string)
	Clear() error
	Stats() artifact.Stats
}

// budgeted is a store and its part of the memory budget in 1/1024ths.
type budgeted struct {
	store
	share int64
}

// stores lists every store of e once: traces take three quarters of the
// budget, and the compile tier three times the profile tier's share.
// The memory-only stores (no codec) ignore a cache dir and remote.
func (e *Env) stores() []budgeted {
	return []budgeted{
		{e.traceStore, 768},
		{e.seqStore, 16},
		{e.resStore, 16},
		{e.cellStore, 4},
		{e.profStore, 55},
		{e.compStore, 165},
	}
}

// Workers returns the resolved worker count (>= 1).
func (e *Env) Workers() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// ClearDiskCache removes every persisted artifact under the Env's cache
// dir (no-op without one; the remote tier is shared with other workers
// and is never cleared from here). helix-bench -cacheclear calls it.
func (e *Env) ClearDiskCache() error {
	for _, s := range e.stores() {
		if err := s.Clear(); err != nil {
			return err
		}
	}
	return nil
}

// Stats is a snapshot of an Env's counters: the work it did since New,
// and its stores' tier traffic.
type Stats struct {
	// Recordings and Replays count how simulations were served: by
	// recording a fresh trace (full execution) or by retiming a stored
	// one. A batched traversal counts each lane it retimed once, however
	// many runs of its work unit the lane's Result is published under.
	Recordings, Replays int64
	// Compiles counts every HCC compile (the compile tier's fills and the
	// TLP cells'), and Profiles every training profile: one per
	// (workload, cores) input, however many levels and alias tiers
	// compile from it. A warm run finds every Result and every analysis
	// and TLP cell persisted, so it does neither.
	Compiles, Profiles int64
	// Batches counts the batched traversals of two or more lanes,
	// BatchLanes the lanes they retimed (a traversal shared by the runs
	// of one work unit retimes each distinct config once), and
	// BatchFallbacks the one-lane traversals.
	Batches, BatchLanes, BatchFallbacks int64
	// Cache sums the stores' tier counters: memory hits and misses, disk
	// and remote hits, misses, writes and load time, and evictions.
	Cache artifact.Stats
}

// Stats returns e's counters.
func (e *Env) Stats() Stats {
	st := Stats{
		Recordings: e.recordings.Load(), Replays: e.replays.Load(),
		Compiles: e.compiles.Load(), Profiles: e.profiles.Load(),
		Batches: e.batches.Load(), BatchLanes: e.batchLanes.Load(), BatchFallbacks: e.batchFallbacks.Load(),
	}
	for _, s := range e.stores() {
		st.Cache.Add(s.Stats())
	}
	return st
}

// Replay renders the counters as a report's replay section.
func (s Stats) Replay() *benchreport.Replay {
	cs := s.Cache
	return &benchreport.Replay{
		Recordings:     s.Recordings,
		Replays:        s.Replays,
		Compiles:       s.Compiles,
		Profiles:       s.Profiles,
		Batches:        s.Batches,
		BatchConfigs:   s.BatchLanes,
		BatchFallbacks: s.BatchFallbacks,
		Claims:         cs.Claims,
		Steals:         cs.Steals,
		ExpiredLeases:  cs.ExpiredLeases,
		DupSuppressed:  cs.DupSuppressed,
		MemHits:        cs.MemHits,
		MemMisses:      cs.MemMisses,
		DiskHits:       cs.DiskHits,
		DiskMisses:     cs.DiskMisses,
		DiskWrites:     cs.DiskWrites,
		DiskLoadMS:     float64(cs.DiskLoadNS) / 1e6,
		RemoteHits:     cs.RemoteHits,
		RemoteMisses:   cs.RemoteMisses,
		RemoteWrites:   cs.RemoteWrites,
		RemoteLoadMS:   float64(cs.RemoteLoadNS) / 1e6,
		CacheEvictions: cs.Evictions,
		CacheEvictedMB: float64(cs.EvictedBytes) / (1 << 20),
	}
}

// build is a workload as the harness shares it: built once per process
// by workloads.Get, which numbers it, and only read afterwards — HCC
// emits a new program that extends it — so its fingerprint, profiles,
// compiles, recordings and TLP cells all read the one build.
type build struct {
	name string // the registry name
	w    *workloads.Workload
	// fp is the content fingerprint the workload's artifacts are keyed
	// under: the canonical program fingerprint (block names normalized
	// positionally) plus the train/ref argument vectors, which compiles
	// and traces depend on but the program text does not contain.
	fp string
	// input is the program prepared for HCC (hcc.Prepare), whose
	// analyses every training and compile of the build share. The first
	// profile or compile fill prepares it, so a run served entirely from
	// the caches prepares nothing. Like the program, it lives as long as
	// the build and is not charged to any store's budget.
	input func() (*hcc.Input, error)
}

// builds memoizes one build per workload name, for every Env of the
// process: registry content is fixed for the process, a build is only
// read, and the memo holds at most one entry per name asked for.
var builds artifact.Memo[*build]

// workloadBuild serves the workload's shared build.
func workloadBuild(ctx context.Context, name string) (*build, error) {
	return builds.Do(ctx, name, func(context.Context) (*build, error) {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(fmt.Appendf(nil, "%s train=%v ref=%v",
			w.Prog.Fingerprint(w.Entry), w.TrainArgs, w.RefArgs))
		return &build{
			name: name, w: w, fp: hex.EncodeToString(sum[:]),
			input: sync.OnceValues(func() (*hcc.Input, error) { return hcc.Prepare(w.Prog) }),
		}, nil
	})
}

// compileTier compiles the workload's build at the given level and
// alias tier (0 = the level's engineered default, which is every path
// except the explore sweeps). The training profile comes from the
// profile tier, shared with every other level and tier compiled for the
// same (workload, cores).
func (e *Env) compileTier(ctx context.Context, b *build, level hcc.Level, cores, tier int) (*hcc.Compiled, error) {
	prof, err := e.trainedProfile(ctx, b, cores)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.name, err)
	}
	comp, err := e.compile(b, hcc.Options{
		Level: level, Cores: cores, TrainArgs: b.w.TrainArgs, AliasTier: tier,
	}, prof)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.name, err)
	}
	return comp, nil
}

// compile compiles the build's prepared input under opts from the
// training profile prof, counting the compile.
func (e *Env) compile(b *build, opts hcc.Options, prof *interp.Profile) (*hcc.Compiled, error) {
	in, err := b.input()
	if err != nil {
		return nil, err
	}
	e.compiles.Add(1)
	return in.CompileWith(b.w.Entry, opts, prof)
}

// trainedProfile serves the training profile of the workload on a ring
// of cores cores. A profile depends on the program, its training args,
// the core count and the profile budget, but not on the level or the
// alias tier, so the first compile of an input trains it and every
// later one reads the same immutable Profile from the profile tier.
func (e *Env) trainedProfile(ctx context.Context, b *build, cores int) (*interp.Profile, error) {
	key := fmt.Sprintf("profile/%s/c%d/%s", b.name, cores, b.fp)
	return e.profStore.Get(ctx, key, func(context.Context) (*interp.Profile, error) {
		in, err := b.input()
		if err != nil {
			return nil, err
		}
		e.profiles.Add(1)
		return in.Train(b.w.Entry, hcc.Options{Cores: cores, TrainArgs: b.w.TrainArgs})
	})
}

// Geomean returns the geometric mean of xs (1.0 for empty input).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	prod := 1.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		prod *= x
	}
	return math.Pow(prod, 1/float64(len(xs)))
}
