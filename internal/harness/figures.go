package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"helixrc/internal/alias"
	"helixrc/internal/artifact"
	"helixrc/internal/cfg"
	"helixrc/internal/ddg"
	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// cacheScheme pins everything the meaning of a disk-tier key rests on:
// the IR program fingerprint scheme, the sim.Config fingerprint scheme,
// and the harness key grammar itself (the trailing component — bump it
// when key derivation changes shape). Disk entries written under any
// other scheme are misses, never errors.
const cacheScheme = ir.FingerprintScheme + "+" + sim.ConfigFingerprintScheme + "+hkey1"

// The harness caches are content-addressed artifact stores keyed by
// stable fingerprints of the inputs (workload content + arguments,
// compiler level, core count, timing config). All are concurrency-safe
// with singleflight semantics: when many experiment cells need the same
// compilation, baseline or dynamic trace, exactly one goroutine
// computes it and the rest wait for the result. Baseline Results and
// recorded traces can persist to a disk tier (SetCacheDir) because
// their keys are process-independent; compilations stay memory-only
// behind the same interface (a compile is cheap relative to its
// serialized size, and its product is pointer-rich).
var (
	compStore = artifact.NewStore[*compEntry]("compile", cacheScheme, compCost, nil)
	// profStore shares each training profile among the compilations of
	// one (workload, cores) input; memory-only like the compile tier.
	profStore = artifact.NewStore[*interp.Profile]("profile", cacheScheme, profCost, nil)
	seqStore  = artifact.NewStore[*sim.Result]("baseline", cacheScheme,
		func(*sim.Result) int64 { return 1 << 10 },
		&artifact.Codec[*sim.Result]{Encode: sim.EncodeResult, Decode: sim.DecodeResult})
	traceStore = artifact.NewStore[*sim.Trace]("trace", cacheScheme,
		(*sim.Trace).SizeBytes,
		&artifact.Codec[*sim.Trace]{Encode: sim.EncodeTrace, Decode: sim.DecodeTrace})
	// resStore caches replayed Results per (trace key, timing config
	// fingerprint). It is what makes batched retiming composable with
	// the cell-oriented figure generators: prefetchRetimes retimes N
	// configs in one trace traversal and Puts each lane here, and the
	// cells then find their Results without touching the trace. A
	// Config fingerprint includes MaxSteps, so budget-truncated runs
	// can never serve full ones (or vice versa).
	resStore = artifact.NewStore[*sim.Result]("result", cacheScheme,
		func(*sim.Result) int64 { return 1 << 10 },
		&artifact.Codec[*sim.Result]{Encode: sim.EncodeResult, Decode: sim.DecodeResult})

	// fpMemo memoizes per-workload content fingerprints (registry
	// content is fixed for the process, so ResetCaches leaves these).
	fpMemo artifact.Memo[string]
)

// DefaultCacheBudget is the total byte budget shared by the harness
// memory-tier caches (compilations, baselines, traces). Traces
// dominate, so they get most of it; see SetCacheBudget.
const DefaultCacheBudget = int64(1) << 30

func init() {
	SetCacheBudget(DefaultCacheBudget)
}

// SetCacheBudget bounds the summed estimated size of the harness memo
// caches, splitting the total across them (traces take three quarters;
// training profiles take a quarter of the compile share).
// Least-recently-used entries are evicted past the budget, with a log
// line per eviction. total <= 0 removes the bound. The disk tier is
// never evicted by budget — only -cacheclear (or Clear) empties it.
func SetCacheBudget(total int64) {
	if total <= 0 {
		traceStore.SetBudget(0)
		compStore.SetBudget(0)
		profStore.SetBudget(0)
		seqStore.SetBudget(0)
		resStore.SetBudget(0)
		return
	}
	traces := total * 3 / 4
	baselines := total / 64
	results := total / 64
	compiles := total - traces - baselines - results
	traceStore.SetBudget(traces)
	seqStore.SetBudget(baselines)
	resStore.SetBudget(results)
	profStore.SetBudget(compiles / 4)
	compStore.SetBudget(compiles - compiles/4)
}

// SetCacheDir installs dir as the disk tier root for persistable
// artifacts: recorded traces and baseline Results survive the process
// and serve later runs at disk-read cost. Compilations stay
// memory-only. "" disables the disk tier (the default).
func SetCacheDir(dir string) {
	seqStore.SetDir(dir)
	traceStore.SetDir(dir)
	resStore.SetDir(dir)
}

// CacheDir returns the configured disk-tier root, or "" when disabled.
func CacheDir() string { return traceStore.Dir() }

// SetCacheRemote installs base as the remote blob tier's daemon URL
// for the same persistable stores SetCacheDir covers, so workers on
// different machines share recordings through one helix-serve blob
// backend. "" disables the remote tier (the default). Remote failures
// are silent misses — a dead daemon degrades to local recomputation.
func SetCacheRemote(base string) {
	seqStore.SetRemote(base)
	traceStore.SetRemote(base)
	resStore.SetRemote(base)
}

// CacheRemote returns the configured remote-tier base URL, or "" when
// disabled.
func CacheRemote() string { return traceStore.Remote() }

// ClearDiskCache removes every persisted artifact under the configured
// cache dir (no-op without one). helix-bench -cacheclear calls it.
func ClearDiskCache() error {
	if err := seqStore.Clear(); err != nil {
		return err
	}
	if err := resStore.Clear(); err != nil {
		return err
	}
	return traceStore.Clear()
}

// CacheStats aggregates the per-tier counters of every harness store:
// memory hits/misses, disk hits/misses/writes and load time, and the
// memory tier's cumulative evictions (for the helix-bench JSON report).
func CacheStats() artifact.Stats {
	var t artifact.Stats
	t.Add(compStore.Stats())
	t.Add(profStore.Stats())
	t.Add(seqStore.Stats())
	t.Add(traceStore.Stats())
	t.Add(resStore.Stats())
	return t
}

// workloadFingerprint memoizes the content fingerprint a workload's
// artifacts are keyed under: the canonical program fingerprint (block
// names normalized positionally) plus the train/ref argument vectors,
// which compiles and traces depend on but the program text does not
// contain.
func workloadFingerprint(ctx context.Context, name string) (string, error) {
	return fpMemo.Do(ctx, name, func(context.Context) (string, error) {
		w, err := workloads.Get(name)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(fmt.Appendf(nil, "%s train=%v ref=%v",
			w.Prog.Fingerprint(w.Entry), w.TrainArgs, w.RefArgs))
		return hex.EncodeToString(sum[:]), nil
	})
}

// compCost estimates a cached compilation's footprint: the cloned
// program (instructions dominate, plus the per-UID analysis maps) and
// global initializers. The training profile it shares is profStore's
// to count.
func compCost(e *compEntry) int64 {
	var instrs int64
	for _, fn := range e.w.Prog.Funcs {
		for _, b := range fn.Blocks {
			instrs += int64(len(b.Instrs))
		}
	}
	cost := instrs*200 + 4096
	for _, g := range e.w.Prog.Globals {
		cost += int64(len(g.Init)) * 8
	}
	return cost
}

// profCost estimates a training profile's footprint: block counts,
// per-loop samples and histograms, and the dependence and shared-address
// maps.
func profCost(p *interp.Profile) int64 {
	cost := int64(1024)
	for _, counts := range p.BlockCount {
		cost += int64(len(counts)) * 8
	}
	for _, lp := range p.Loops {
		cost += int64(len(lp.IterLens)+len(lp.TripCounts))*4 +
			int64(len(lp.HopDist)+len(lp.ConsumerCounts))*8 +
			int64(len(lp.Deps)+len(lp.SharedAddrs))*48
	}
	return cost
}

type compEntry struct {
	w    *workloads.Workload
	comp *hcc.Compiled
}

// CachedCompile memoizes Compile per (workload content, level, cores).
// Safe for concurrent use; duplicate concurrent requests share one
// compilation. The returned workload and compilation are shared —
// callers must treat them as read-only (sim.Run does). A cancelled ctx
// detaches this caller from the shared compilation without aborting it
// for others.
func CachedCompile(ctx context.Context, name string, level hcc.Level, cores int) (*workloads.Workload, *hcc.Compiled, error) {
	return cachedCompileTier(ctx, name, level, cores, 0)
}

// cachedCompileTier is CachedCompile with an alias-tier override. Tier
// zero (the level default) keeps the historical key shape so every
// existing cache entry — memory or disk — stays addressable; a nonzero
// tier adds its own key component.
func cachedCompileTier(ctx context.Context, name string, level hcc.Level, cores, tier int) (*workloads.Workload, *hcc.Compiled, error) {
	fp, err := workloadFingerprint(ctx, name)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("compile/%s/L%d/c%d/%s", name, level, cores, fp)
	if tier > 0 {
		key = fmt.Sprintf("compile/%s/L%d/c%d/t%d/%s", name, level, cores, tier, fp)
	}
	e, err := compStore.Get(ctx, key, func(cctx context.Context) (*compEntry, error) {
		// hcc.Compile is not interruptible mid-flight (its profiling is
		// bounded by ProfileBudget); honour an already-dead context
		// before starting the work.
		if err := cctx.Err(); err != nil {
			return nil, err
		}
		w, comp, err := compileTier(cctx, name, level, cores, tier)
		if err != nil {
			return nil, err
		}
		return &compEntry{w: w, comp: comp}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return e.w, e.comp, nil
}

// CachedBaseline memoizes the sequential run per (workload content,
// timing config, ref), persisting the Result to the disk tier when one
// is configured. The key normalizes the core count away: a sequential
// run executes on core 0 only, so its Result is core-count independent
// (Figure 11a's sweep shares one baseline across 2..16 cores, exactly
// as the previous core-model key did). The underlying dynamic trace is
// keyed by (workload content, ref) alone — a baseline has no parallel
// loops, so its trace is independent of the timing config entirely and
// each new core model only pays a replay.
func CachedBaseline(ctx context.Context, name string, arch sim.Config, ref bool) (*sim.Result, error) {
	fp, err := workloadFingerprint(ctx, name)
	if err != nil {
		return nil, err
	}
	karch := arch
	karch.Cores = 0
	key := fmt.Sprintf("base/%s/ref=%v/%s/%s", name, ref, karch.Fingerprint(), fp)
	return seqStore.Get(ctx, key, func(cctx context.Context) (*sim.Result, error) {
		tkey := fmt.Sprintf("trace/base/%s/ref=%v/%s", name, ref, fp)
		return simWithTrace(cctx, tkey, baselineLoader(name), arch, ref)
	})
}

// ResetCaches clears the memory tier of memoized compilations,
// baselines and traces (tests use this to bound memory, and to force
// warm-start paths). Disk-tier entries and all counters survive. Safe
// to call concurrently with cache users: in-flight computations
// complete for their waiters and are dropped.
func ResetCaches() {
	compStore.Reset()
	profStore.Reset()
	seqStore.Reset()
	traceStore.Reset()
	resStore.Reset()
}

// resultKey derives the result-store key for one (trace, timing
// config) pair: the trace key pins the dynamic behaviour, the config
// fingerprint pins the timing model (including MaxSteps, so truncated
// runs key separately).
func resultKey(traceKey string, arch sim.Config) string {
	return "res/" + traceKey + "/" + arch.Fingerprint()
}

// traceKey derives the parallel-trace key: compiled-program identity
// (workload content, level, cores, alias tier) plus input selection.
// Tier zero keeps the historical shape, so pre-tier disk caches stay
// live; the explore sweeps' tiered traces get a distinct component.
func traceKey(name string, level hcc.Level, cores, tier int, ref bool, fp string) string {
	if tier > 0 {
		return fmt.Sprintf("trace/%s/L%d/c%d/t%d/ref=%v/%s", name, level, cores, tier, ref, fp)
	}
	return fmt.Sprintf("trace/%s/L%d/c%d/ref=%v/%s", name, level, cores, ref, fp)
}

// loader builds the program one simulation executes: the workload and
// its compilation (nil for a sequential baseline). The record/replay
// path calls it only when it must execute — a result hit or a trace
// replay never builds or compiles anything.
type loader func(ctx context.Context) (*workloads.Workload, *hcc.Compiled, error)

// baselineLoader builds the unparallelized workload.
func baselineLoader(name string) loader {
	return func(context.Context) (*workloads.Workload, *hcc.Compiled, error) {
		w, err := workloads.Get(name)
		return w, nil, err
	}
}

// compiledLoader compiles the workload through the compile tier.
func compiledLoader(name string, level hcc.Level, cores, tier int) loader {
	return func(ctx context.Context) (*workloads.Workload, *hcc.Compiled, error) {
		return cachedCompileTier(ctx, name, level, cores, tier)
	}
}

// record executes the loaded program under arch and captures its
// dynamic trace: the fill behind every trace-store miss.
func record(ctx context.Context, load loader, arch sim.Config, ref bool) (*sim.Result, *sim.Trace, error) {
	w, comp, err := load(ctx)
	if err != nil {
		return nil, nil, err
	}
	res, tr, err := sim.Record(ctx, w.Prog, comp, w.Entry, arch, args(w, ref)...)
	if err != nil {
		return nil, nil, err
	}
	traceRecordings.Add(1)
	return res, tr, nil
}

// simWithTrace serves one harness simulation through the record/replay
// fast path: the first run for a trace key executes and records (and
// persists the trace when a disk tier is configured), every later run
// under any timing config — in this process or a later one — replays
// the stored trace. Replayed Results are themselves cached in resStore
// per (trace key, config fingerprint), which is how the batched
// retimer hands whole sweeps to the cells: prefetchRetimes walks the
// trace once for N configs and Puts every lane, so the cells below hit
// the result tier and never touch the trace. The trace key must pin
// everything the dynamic behaviour depends on — compiled program
// identity (workload content, level, cores) and input — while timing
// parameters stay out of it. load runs only to record a trace.
func simWithTrace(ctx context.Context, key string, load loader, arch sim.Config, ref bool) (*sim.Result, error) {
	return resStore.Get(ctx, resultKey(key, arch), func(rctx context.Context) (*sim.Result, error) {
		var recorded *sim.Result
		tr, err := traceStore.Get(rctx, key, func(cctx context.Context) (*sim.Trace, error) {
			res, tr, err := record(cctx, load, arch, ref)
			recorded = res
			return tr, err
		})
		if err != nil {
			return nil, err
		}
		if recorded != nil {
			// This goroutine did the recording; its Result is already
			// exact for its own arch.
			return recorded, nil
		}
		traceReplays.Add(1)
		return sim.Replay(rctx, tr, arch)
	})
}

// runOn simulates one configuration keyed by workload content alone: a
// cached Result answers without compiling, a stored trace for this
// (workload content, level, cores, input) replays, and only a recording
// compiles (through the compile tier).
func runOn(ctx context.Context, name string, level hcc.Level, arch sim.Config, ref bool) (*sim.Result, error) {
	return runOnTier(ctx, name, level, 0, arch, ref)
}

// runOnTier is runOn with an alias-tier override for the compile and
// the trace key (0 = level default, the historical path).
func runOnTier(ctx context.Context, name string, level hcc.Level, tier int, arch sim.Config, ref bool) (*sim.Result, error) {
	fp, err := workloadFingerprint(ctx, name)
	if err != nil {
		return nil, err
	}
	key := traceKey(name, level, arch.Cores, tier, ref, fp)
	res, err := simWithTrace(ctx, key, compiledLoader(name, level, arch.Cores, tier), arch, ref)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// CachedRun is runOn's exported face for callers that also want the
// compilation: compile (memoized) plus simulate through the
// store-backed record/replay path. cmd/helix-run uses it in -cachedir
// mode so a repeated run serves its trace from disk.
func CachedRun(ctx context.Context, name string, level hcc.Level, arch sim.Config, ref bool) (*sim.Result, *hcc.Compiled, error) {
	_, comp, err := CachedCompile(ctx, name, level, arch.Cores)
	if err != nil {
		return nil, nil, err
	}
	res, err := runOn(ctx, name, level, arch, ref)
	if err != nil {
		return nil, nil, err
	}
	return res, comp, nil
}

// SpeedupRow is one benchmark's values under one or more configurations.
type SpeedupRow struct {
	Name   string
	Values []float64
}

// FigureResult is a generic labelled table of per-benchmark series.
type FigureResult struct {
	Title   string
	Series  []string
	Rows    []SpeedupRow
	Geomean []float64
	Notes   string
}

// Format renders the figure as a text table.
func (f *FigureResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", f.Title)
	fmt.Fprintf(&sb, "%-12s", "benchmark")
	for _, s := range f.Series {
		fmt.Fprintf(&sb, " %16s", s)
	}
	sb.WriteString("\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-12s", r.Name)
		for _, v := range r.Values {
			fmt.Fprintf(&sb, " %16.2f", v)
		}
		sb.WriteString("\n")
	}
	if len(f.Geomean) > 0 {
		fmt.Fprintf(&sb, "%-12s", "geomean")
		for _, v := range f.Geomean {
			fmt.Fprintf(&sb, " %16.2f", v)
		}
		sb.WriteString("\n")
	}
	if f.Notes != "" {
		fmt.Fprintf(&sb, "%s\n", f.Notes)
	}
	return sb.String()
}

func geomeanColumn(rows []SpeedupRow, col int) float64 {
	var xs []float64
	for _, r := range rows {
		xs = append(xs, r.Values[col])
	}
	return Geomean(xs)
}

// Figure1 compares HCCv1 and HCCv2 on the conventional 16-core platform
// with the optimistic 10-cycle coherence latency.
func Figure1(ctx context.Context, cores int) (*FigureResult, error) {
	f := &FigureResult{
		Title:  "Figure 1: HCCv1 vs HCCv2 program speedup (conventional hardware)",
		Series: []string{"HCCv1", "HCCv2"},
		Notes:  "Paper shape: CFP2000 rises 2.4x -> 11x with HCCv2; CINT2000 stays ~2x for both.",
	}
	names := workloads.Names()
	levels := []hcc.Level{hcc.V1, hcc.V2}
	prefetchRetimes(ctx, experimentGroups("fig1", cores))
	cell := func(i int) string {
		return fmt.Sprintf("%s/L%d/conv%d", names[i/len(levels)], levels[i%len(levels)], cores)
	}
	vals, err := parMapCells(ctx, len(names)*len(levels), cell, func(ctx context.Context, i int) (float64, error) {
		name, level := names[i/len(levels)], levels[i%len(levels)]
		res, err := runOn(ctx, name, level, sim.Conventional(cores), true)
		if err != nil {
			return 0, err
		}
		seq, err := CachedBaseline(ctx, name, sim.Conventional(cores), true)
		if err != nil {
			return 0, err
		}
		return sim.Speedup(seq, res), nil
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		f.Rows = append(f.Rows, SpeedupRow{Name: name, Values: vals[ni*len(levels) : (ni+1)*len(levels)]})
	}
	f.Geomean = []float64{geomeanColumn(f.Rows, 0), geomeanColumn(f.Rows, 1)}
	return f, nil
}

// Figure2 measures dependence-analysis accuracy per alias tier over the
// hot loops HCCv3 selects in the CINT2000 analogues (the paper's "small
// hot loops"). Accuracy is actual/reported loop-carried dependences,
// scored against the profiler's dynamic oracle.
func Figure2(ctx context.Context) (*FigureResult, error) {
	f := &FigureResult{
		Title: "Figure 2: dependence analysis accuracy for small hot loops (CINT2000)",
		Notes: "Paper shape: 48% (VLLPA) rising to 81% (+lib calls). Mean of per-loop actual/reported.",
	}
	for _, t := range alias.Tiers {
		f.Series = append(f.Series, t.String())
	}
	sums := make([]float64, len(alias.Tiers))
	counts := make([]int, len(alias.Tiers))
	// One cell per workload, not per (workload, tier): the five tiers
	// share one CFG per loop function.
	names := workloads.IntNames()
	cell := func(i int) string { return fmt.Sprintf("%s/L%d/alias", names[i], hcc.V3) }
	rows, err := parMapCells(ctx, len(names), cell, func(ctx context.Context, i int) ([]float64, error) {
		name := names[i]
		w, comp, err := CachedCompile(ctx, name, hcc.V3, 16)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(alias.Tiers))
		graphs := map[string]*cfg.Graph{}
		for ti, tier := range alias.Tiers {
			an := alias.New(w.Prog, tier)
			var acc float64
			var n int
			for _, pl := range comp.Loops {
				g, ok := graphs[pl.Fn.Name]
				if !ok {
					g = cfg.New(pl.Fn)
					graphs[pl.Fn.Name] = g
				}
				dg := ddg.Build(w.Prog, pl.Fn, g, pl.Loop, an)
				if len(dg.MemEdges) == 0 {
					continue
				}
				acc += ddg.Accuracy(dg, pl.Profile)
				n++
			}
			v := 1.0
			if n > 0 {
				v = acc / float64(n)
			}
			vals[ti] = v
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		f.Rows = append(f.Rows, SpeedupRow{Name: name, Values: rows[ni]})
		for ti, v := range rows[ni] {
			sums[ti] += v
			counts[ti]++
		}
	}
	f.Geomean = make([]float64, len(alias.Tiers))
	for i := range sums {
		if counts[i] > 0 {
			f.Geomean[i] = sums[i] / float64(counts[i])
		}
	}
	return f, nil
}

// Figure3 measures how much register communication the predictability
// analysis removes: the fraction of loop-carried registers that remain
// shared (must be communicated) vs those recomputed locally, plus the
// split of remaining communication between registers and memory.
type Figure3Result struct {
	// CarriedRegs counts loop-carried registers across selected loops.
	CarriedRegs int
	// SharedRegs is how many remain after recomputation (communicated).
	SharedRegs int
	// MemClusters counts shared-memory dependence clusters.
	MemClusters int
	// RegCommFraction = SharedRegs/CarriedRegs (paper: 15%).
	RegCommFraction float64
	// MemShare is memory clusters / (memory clusters + shared regs):
	// the paper's "majority of remaining communication is memory".
	MemShare float64
	ByClass  map[string]int
}

// Format renders the result.
func (r *Figure3Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 3: predictability of variables reduces register communication\n")
	fmt.Fprintf(&sb, "loop-carried registers: %d; still shared after recomputation: %d (%.0f%%)\n",
		r.CarriedRegs, r.SharedRegs, 100*r.RegCommFraction)
	fmt.Fprintf(&sb, "remaining communication: %d memory clusters vs %d registers (memory share %.0f%%)\n",
		r.MemClusters, r.SharedRegs, 100*r.MemShare)
	fmt.Fprintf(&sb, "classification: %v\n", r.ByClass)
	sb.WriteString("Paper shape: register communication drops to 15%; remainder is mostly memory.\n")
	return sb.String()
}

// Figure3 runs the predictability census over the HCCv3-selected loops of
// the CINT2000 analogues.
func Figure3(ctx context.Context) (*Figure3Result, error) {
	out := &Figure3Result{ByClass: map[string]int{}}
	// One cell per workload; integer partial counts merge
	// order-independently.
	names := workloads.IntNames()
	cell := func(i int) string { return fmt.Sprintf("%s/L%d/census", names[i], hcc.V3) }
	parts, err := parMapCells(ctx, len(names), cell, func(ctx context.Context, i int) (*Figure3Result, error) {
		p := &Figure3Result{ByClass: map[string]int{}}
		w, comp, err := CachedCompile(ctx, names[i], hcc.V3, 16)
		if err != nil {
			return nil, err
		}
		an := alias.New(w.Prog, alias.TierLib)
		for _, pl := range comp.Loops {
			g := cfg.New(pl.Fn)
			dg := ddg.Build(w.Prog, pl.Fn, g, pl.Loop, an)
			classes := inductionClassify(pl, g, dg)
			p.CarriedRegs += len(dg.CarriedRegs)
			seen := map[int32]bool{}
			for _, e := range dg.MemEdges {
				if !seen[e.A] {
					seen[e.A] = true
				}
			}
			if len(dg.MemEdges) > 0 {
				p.MemClusters++
			}
			for _, info := range classes {
				p.ByClass[info.Class.String()]++
				if !info.Class.Predictable() {
					p.SharedRegs++
				}
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		out.CarriedRegs += p.CarriedRegs
		out.SharedRegs += p.SharedRegs
		out.MemClusters += p.MemClusters
		for k, v := range p.ByClass {
			out.ByClass[k] += v
		}
	}
	if out.CarriedRegs > 0 {
		out.RegCommFraction = float64(out.SharedRegs) / float64(out.CarriedRegs)
	}
	if out.MemClusters+out.SharedRegs > 0 {
		out.MemShare = float64(out.MemClusters) / float64(out.MemClusters+out.SharedRegs)
	}
	return out, nil
}

// Figure4Result holds the loop-characterization statistics of Figure 4.
type Figure4Result struct {
	// CDF of iteration execution time in cycles on one in-order core:
	// fraction of iterations completing within each bound.
	IterCyclesBounds []int64
	IterCyclesCDF    []float64
	// HopDist[d] is the fraction of shared-value first consumptions at
	// undirected ring distance d (1..8 on 16 cores).
	HopDist []float64
	// Consumers[k] is the fraction of shared values consumed by k cores.
	Consumers []float64
}

// Format renders the result.
func (r *Figure4Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 4a: loop iteration execution time CDF (1 in-order core)\n")
	for i, b := range r.IterCyclesBounds {
		fmt.Fprintf(&sb, "  <= %4d cycles: %5.1f%%\n", b, 100*r.IterCyclesCDF[i])
	}
	sb.WriteString("Paper shape: >50% of iterations complete within 25 cycles.\n")
	sb.WriteString("Figure 4b: producer->first-consumer hop distance\n")
	for d := 1; d < len(r.HopDist); d++ {
		fmt.Fprintf(&sb, "  %d hop(s): %5.1f%%\n", d, 100*r.HopDist[d])
	}
	sb.WriteString("Paper shape: only ~15% of transfers are adjacent-core (1 hop).\n")
	sb.WriteString("Figure 4c: consumers per shared value\n")
	for k := 1; k < len(r.Consumers); k++ {
		fmt.Fprintf(&sb, "  %d core(s): %5.1f%%\n", k, 100*r.Consumers[k])
	}
	sb.WriteString("Paper shape: 86% of shared values are consumed by multiple cores.\n")
	return sb.String()
}

// Figure4 collects iteration-length, hop-distance and consumer statistics
// over the HCCv3-selected CINT2000 loops.
func Figure4(ctx context.Context) (*Figure4Result, error) {
	out := &Figure4Result{
		IterCyclesBounds: []int64{10, 25, 50, 75, 110, 260, 1 << 30},
		HopDist:          make([]float64, 9),
		Consumers:        make([]float64, 17),
	}
	cdfCounts := make([]int64, len(out.IterCyclesBounds))
	var iterTotal int64
	var hopTotal, consTotal int64
	hops := make([]int64, 9)
	cons := make([]int64, 17)
	const cpi = 1.4 // measured in-order CPI on compute-bound code
	// The paper's Figure 4 characterizes the *small* hot loops; exclude
	// the long-iteration passes (their per-iteration bookkeeping sharing
	// is trivially adjacent and would drown the table-driven patterns).
	const smallIterLimit = 75
	// One cell per workload; each returns integer partial counts that
	// merge order-independently.
	type part struct {
		cdf                        []int64
		hops, cons                 []int64
		iters, hopTotal, consTotal int64
	}
	names := workloads.IntNames()
	cell := func(i int) string { return fmt.Sprintf("%s/L%d/loopstats", names[i], hcc.V3) }
	parts, err := parMapCells(ctx, len(names), cell, func(ctx context.Context, i int) (*part, error) {
		p := &part{
			cdf:  make([]int64, len(out.IterCyclesBounds)),
			hops: make([]int64, len(hops)),
			cons: make([]int64, len(cons)),
		}
		_, comp, err := CachedCompile(ctx, names[i], hcc.V3, 16)
		if err != nil {
			return nil, err
		}
		for _, pl := range comp.Loops {
			lp := pl.Profile
			if pl.AvgIterLen > smallIterLimit || pl.AvgIterLen < 10 {
				continue
			}
			for _, il := range lp.IterLens {
				cycles := int64(float64(il) * cpi)
				for bi, b := range out.IterCyclesBounds {
					if cycles <= b {
						p.cdf[bi]++
					}
				}
				p.iters++
			}
			for d, c := range lp.HopDist {
				if d < len(p.hops) {
					p.hops[d] += c
					p.hopTotal += c
				}
			}
			for k, c := range lp.ConsumerCounts {
				if k >= 1 && k < len(p.cons) {
					p.cons[k] += c
					p.consTotal += c
				}
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		for bi, c := range p.cdf {
			cdfCounts[bi] += c
		}
		for d, c := range p.hops {
			hops[d] += c
		}
		for k, c := range p.cons {
			cons[k] += c
		}
		iterTotal += p.iters
		hopTotal += p.hopTotal
		consTotal += p.consTotal
	}
	out.IterCyclesCDF = make([]float64, len(out.IterCyclesBounds))
	for i := range cdfCounts {
		if iterTotal > 0 {
			out.IterCyclesCDF[i] = float64(cdfCounts[i]) / float64(iterTotal)
		}
	}
	for d := range hops {
		if hopTotal > 0 {
			out.HopDist[d] = float64(hops[d]) / float64(hopTotal)
		}
	}
	for k := range cons {
		if consTotal > 0 {
			out.Consumers[k] = float64(cons[k]) / float64(consTotal)
		}
	}
	return out, nil
}

// Table1Row is one benchmark's row of Table 1.
type Table1Row struct {
	Name     string
	Phases   int
	Coverage [3]float64 // HCCv1, HCCv2, HELIX-RC (HCCv3)
}

// Table1 reports parallelized-loop coverage per compiler generation.
func Table1(ctx context.Context) ([]Table1Row, error) {
	names := workloads.Names()
	levels := []hcc.Level{hcc.V1, hcc.V2, hcc.V3}
	// One cell per (workload, level); the phases column rides with the
	// first level's cell.
	type cell struct {
		coverage float64
		phases   int
	}
	label := func(i int) string {
		return fmt.Sprintf("%s/L%d/coverage", names[i/len(levels)], levels[i%len(levels)])
	}
	cells, err := parMapCells(ctx, len(names)*len(levels), label, func(ctx context.Context, i int) (cell, error) {
		name, li := names[i/len(levels)], i%len(levels)
		var c cell
		if li == 0 {
			w, err := workloads.Get(name)
			if err != nil {
				return c, err
			}
			c.phases = w.Phases
		}
		_, comp, err := CachedCompile(ctx, name, levels[li], 16)
		if err != nil {
			return c, err
		}
		c.coverage = comp.Coverage
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(names))
	for ni, name := range names {
		rows[ni] = Table1Row{Name: name, Phases: cells[ni*len(levels)].phases}
		for li := range levels {
			rows[ni].Coverage[li] = cells[ni*len(levels)+li].coverage
		}
	}
	return rows, nil
}

// FormatTable1 renders Table 1.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1: characteristics of parallelized benchmarks\n")
	fmt.Fprintf(&sb, "%-12s %7s %10s %10s %10s\n", "benchmark", "phases", "HCCv1", "HCCv2", "HELIX-RC")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %7d %9.1f%% %9.1f%% %9.1f%%\n",
			r.Name, r.Phases, 100*r.Coverage[0], 100*r.Coverage[1], 100*r.Coverage[2])
	}
	sb.WriteString("Paper shape: HELIX-RC >=98% everywhere; HCCv1/v2 42-72% on CINT2000.\n")
	return sb.String()
}

// Figure7 is the headline result: HCCv2 on conventional hardware vs
// HELIX-RC (HCCv3 + ring cache), both against sequential execution.
func Figure7(ctx context.Context, cores int) (*FigureResult, error) {
	f := &FigureResult{
		Title:  "Figure 7: HELIX-RC triples the speedup obtained by HCCv2",
		Series: []string{"HCCv2", "HELIX-RC"},
		Notes:  "Paper shape: CINT geomean 2.2x -> 6.85x; CFP 11.4x -> ~12x.",
	}
	names := workloads.Names()
	prefetchRetimes(ctx, experimentGroups("fig7", cores))
	cell := func(i int) string {
		if i%2 == 0 {
			return fmt.Sprintf("%s/L%d/conv%d", names[i/2], hcc.V2, cores)
		}
		return fmt.Sprintf("%s/L%d/rc%d", names[i/2], hcc.V3, cores)
	}
	// One cell per (workload, series); the shared sequential baseline is
	// deduplicated by CachedBaseline's singleflight.
	vals, err := parMapCells(ctx, len(names)*2, cell, func(ctx context.Context, i int) (float64, error) {
		name := names[i/2]
		seq, err := CachedBaseline(ctx, name, sim.Conventional(cores), true)
		if err != nil {
			return 0, err
		}
		var res *sim.Result
		if i%2 == 0 {
			res, err = runOn(ctx, name, hcc.V2, sim.Conventional(cores), true)
		} else {
			res, err = runOn(ctx, name, hcc.V3, sim.HelixRC(cores), true)
		}
		if err != nil {
			return 0, err
		}
		return sim.Speedup(seq, res), nil
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		f.Rows = append(f.Rows, SpeedupRow{Name: name, Values: vals[ni*2 : (ni+1)*2]})
	}
	f.Geomean = []float64{geomeanColumn(f.Rows, 0), geomeanColumn(f.Rows, 1)}
	return f, nil
}

// figure8Configs lists Figure 8's decoupling configs, one per series:
// HCCv2 code on conventional hardware, then HCCv3 code with register
// communication decoupled, plus synchronization, plus memory, and all
// three (HELIX-RC). Shared with the shard planner's experimentGroups.
func figure8Configs(cores int) []sim.Config {
	variant := func(reg, syncD, mem bool) sim.Config {
		c := sim.HelixRC(cores)
		c.DecoupleReg, c.DecoupleSync, c.DecoupleMem = reg, syncD, mem
		return c
	}
	return []sim.Config{
		sim.Conventional(cores),     // HCCv2 runs below
		variant(true, false, false), // decoupled register communication
		variant(true, true, false),  // + synchronization
		variant(true, false, true),  // reg + memory
		variant(true, true, true),   // all (HELIX-RC)
	}
}

// Figure8 breaks down the benefit of decoupling each communication class
// (registers, synchronization, memory) for the CINT2000 analogues.
func Figure8(ctx context.Context, cores int) (*FigureResult, error) {
	f := &FigureResult{
		Title: "Figure 8: breakdown of benefits of decoupling communication",
		Series: []string{
			"HCCv2", "dec.reg", "dec.reg+sync", "dec.reg+mem", "HELIX-RC",
		},
		Notes: "Paper shape: register decoupling alone helps little; sync and memory decoupling dominate.",
	}
	configs := figure8Configs(cores)
	names := workloads.IntNames()
	// One batched retime per workload covers the four decoupling
	// variants: they share the HCCv3 trace.
	prefetchRetimes(ctx, experimentGroups("fig8", cores))
	// One cell per (workload, decoupling variant).
	cell := func(i int) string {
		return fmt.Sprintf("%s/%s/%dcores", names[i/len(configs)], f.Series[i%len(configs)], cores)
	}
	vals, err := parMapCells(ctx, len(names)*len(configs), cell, func(ctx context.Context, i int) (float64, error) {
		name, ci := names[i/len(configs)], i%len(configs)
		seq, err := CachedBaseline(ctx, name, sim.Conventional(cores), true)
		if err != nil {
			return 0, err
		}
		level := hcc.V3
		if ci == 0 {
			level = hcc.V2
		}
		res, err := runOn(ctx, name, level, configs[ci], true)
		if err != nil {
			return 0, err
		}
		return sim.Speedup(seq, res), nil
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		f.Rows = append(f.Rows, SpeedupRow{Name: name, Values: vals[ni*len(configs) : (ni+1)*len(configs)]})
	}
	f.Geomean = make([]float64, len(configs))
	for i := range configs {
		f.Geomean[i] = geomeanColumn(f.Rows, i)
	}
	return f, nil
}

// Figure9 runs HCCv3-generated code on conventional hardware (C) and on
// the ring cache (R), reporting execution time as % of sequential.
func Figure9(ctx context.Context, cores int) (*FigureResult, error) {
	f := &FigureResult{
		Title:  "Figure 9: HCCv3 code on conventional hardware (C) vs ring cache (R), % of sequential time",
		Series: []string{"C %time", "R %time"},
		Notes:  "Paper shape: C bars at or above 100% (no better than sequential); R bars far below.",
	}
	names := workloads.IntNames()
	// Both hardware points share the HCCv3 trace: one batched retime
	// per workload.
	prefetchRetimes(ctx, experimentGroups("fig9", cores))
	cell := func(i int) string {
		hw := "conv"
		if i%2 == 1 {
			hw = "rc"
		}
		return fmt.Sprintf("%s/L%d/%s%d", names[i/2], hcc.V3, hw, cores)
	}
	// One cell per (workload, hardware): HCCv3 code on conventional
	// coherence vs on the ring cache.
	vals, err := parMapCells(ctx, len(names)*2, cell, func(ctx context.Context, i int) (float64, error) {
		name := names[i/2]
		seq, err := CachedBaseline(ctx, name, sim.Conventional(cores), true)
		if err != nil {
			return 0, err
		}
		arch := sim.Conventional(cores)
		if i%2 == 1 {
			arch = sim.HelixRC(cores)
		}
		res, err := runOn(ctx, name, hcc.V3, arch, true)
		if err != nil {
			return 0, err
		}
		return 100 * float64(res.Cycles) / float64(seq.Cycles), nil
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		f.Rows = append(f.Rows, SpeedupRow{Name: name, Values: vals[ni*2 : (ni+1)*2]})
	}
	return f, nil
}
