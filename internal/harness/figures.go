package harness

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"helixrc/internal/alias"
	"helixrc/internal/artifact"
	"helixrc/internal/cfg"
	"helixrc/internal/ddg"
	"helixrc/internal/hcc"
	"helixrc/internal/induction"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// cacheScheme pins everything the meaning of a disk-tier key rests on:
// the IR program fingerprint scheme, the sim.Config fingerprint scheme,
// and the harness key grammar itself, hcc.Compiled.Fingerprint included
// (the trailing component — bump it when key derivation changes shape).
// Disk entries written under any other scheme are misses, never errors.
const cacheScheme = ir.FingerprintScheme + "+" + sim.ConfigFingerprintScheme + "+hkey2"

// The harness caches are content-addressed artifact stores keyed by
// stable fingerprints of the inputs (workload content + arguments,
// compiler level, core count, timing config). All are concurrency-safe
// with singleflight semantics: when many experiment cells need the same
// compilation, baseline or dynamic trace, exactly one goroutine
// computes it and the rest wait for the result. Baseline and replayed
// Results, recorded traces and the analysis cells (cellStore) can
// persist to a disk tier (SetCacheDir) because their keys are
// process-independent; compilations stay memory-only
// behind the same interface: its product is pointer-rich, and a compile
// from the build's prepared input (build.input) is cheap, under 0.2 ms
// on 2 vCPU — the wide explore sweep's 160 compiles take about 27 ms of
// CPU, preparing its 8 programs included, and hcc's
// BenchmarkCompileGrid's 600 about 75-85 ms.
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
	// resStore caches replayed Results per (run key, timing config
	// fingerprint). It is what makes batched retiming composable with
	// the cell-oriented figure generators: a work unit retimes N
	// configs in one trace traversal and Puts each lane here, and the
	// cells then find their Results without touching the trace. A
	// Config fingerprint includes MaxSteps, so budget-truncated runs
	// can never serve full ones (or vice versa).
	resStore = artifact.NewStore[*sim.Result]("result", cacheScheme,
		func(*sim.Result) int64 { return 1 << 10 },
		&artifact.Codec[*sim.Result]{Encode: sim.EncodeResult, Decode: sim.DecodeResult})
)

// DefaultCacheBudget is the total byte budget shared by the harness
// memory-tier caches (compilations, baselines, traces). Traces
// dominate, so they get most of it; see SetCacheBudget.
const DefaultCacheBudget = int64(1) << 30

func init() {
	SetCacheBudget(DefaultCacheBudget)
}

// store is what the harness does alike to each of its artifact stores.
type store interface {
	SetBudget(int64)
	SetDir(string)
	SetRemote(string)
	Clear() error
	Stats() artifact.Stats
	Reset()
}

// stores lists every harness store once, for the functions below that
// configure, clear, count and reset them all. share is the store's part
// of the memory budget in 1/1024ths: traces take three quarters, and
// the compile tier three times the profile tier's share. The memory-only
// stores (no codec) ignore a cache dir and remote.
var stores = []struct {
	store
	share int64
}{
	{traceStore, 768},
	{seqStore, 16},
	{resStore, 16},
	{cellStore, 4},
	{profStore, 55},
	{compStore, 165},
}

// SetCacheBudget bounds the summed estimated size of the harness memo
// caches, splitting the total across them by their shares (stores).
// Least-recently-used entries are evicted past the budget, with a log
// line per eviction. total <= 0 removes the bound. The disk tier is
// never evicted by budget — only -cacheclear (or Clear) empties it.
func SetCacheBudget(total int64) {
	for _, s := range stores {
		b := total * s.share / 1024
		if total > 0 {
			b = max(b, 1) // a budget of 0 would lift the bound
		}
		s.SetBudget(b)
	}
}

// SetCacheDir installs dir as the disk tier root for persistable
// artifacts: recorded traces, baseline and replayed Results, and the
// analysis and TLP cells survive the process and serve later runs at
// disk-read cost. Compilations and profiles stay memory-only. ""
// disables the disk tier (the default).
func SetCacheDir(dir string) {
	for _, s := range stores {
		s.SetDir(dir)
	}
}

// CacheDir returns the configured disk-tier root, or "" when disabled.
func CacheDir() string { return traceStore.Dir() }

// SetCacheRemote installs base as the remote blob tier's daemon URL
// for the same persistable stores SetCacheDir covers, so workers on
// different machines share recordings through one helix-serve blob
// backend. "" disables the remote tier (the default). Remote failures
// are silent misses — a dead daemon degrades to local recomputation.
func SetCacheRemote(base string) {
	for _, s := range stores {
		s.SetRemote(base)
	}
}

// CacheRemote returns the configured remote-tier base URL, or "" when
// disabled.
func CacheRemote() string { return traceStore.Remote() }

// ClearDiskCache removes every persisted artifact under the configured
// cache dir (no-op without one). helix-bench -cacheclear calls it.
func ClearDiskCache() error {
	for _, s := range stores {
		if err := s.Clear(); err != nil {
			return err
		}
	}
	return nil
}

// CacheStats aggregates the per-tier counters of every harness store:
// memory hits/misses, disk hits/misses/writes and load time, and the
// memory tier's cumulative evictions (for the helix-bench JSON report).
func CacheStats() artifact.Stats {
	var t artifact.Stats
	for _, s := range stores {
		t.Add(s.Stats())
	}
	return t
}

// compCost estimates a cached compilation's footprint: what the compile
// added to its input (the loop bodies, whose instructions dominate, plus
// the slot and control globals) and the compile's plans. The input is
// the workload's shared build, and the training profile is profStore's
// to count.
func compCost(e *compEntry) int64 {
	prog, in := e.comp.Prog, e.comp.Prog.Base()
	var instrs int64
	for _, fn := range prog.Funcs[len(in.Funcs):] {
		for _, b := range fn.Blocks {
			instrs += int64(len(b.Instrs))
		}
	}
	cost := instrs*200 + 4096
	for _, g := range prog.Globals[len(in.Globals):] {
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

// compEntry is one compile-tier entry: the compilation and its
// Fingerprint, computed once per compile.
type compEntry struct {
	comp *hcc.Compiled
	fp   string
}

// CachedCompile memoizes Compile per (workload content, level, cores).
// Safe for concurrent use; duplicate concurrent requests share one
// compilation. The returned workload (the shared build) and compilation
// are shared — callers must treat them as read-only (HCC and sim.Run
// do). A cancelled ctx detaches this caller from the shared compilation
// without aborting it for others.
func CachedCompile(ctx context.Context, name string, level hcc.Level, cores int) (*workloads.Workload, *hcc.Compiled, error) {
	b, err := workloadBuild(ctx, name)
	if err != nil {
		return nil, nil, err
	}
	e, err := cachedCompile(ctx, b, level, cores, 0)
	if err != nil {
		return nil, nil, err
	}
	return b.w, e.comp, nil
}

// cachedCompile is CachedCompile with an alias-tier override (0 = the
// level default), returning the compile-tier entry.
func cachedCompile(ctx context.Context, b *build, level hcc.Level, cores, tier int) (*compEntry, error) {
	key := fmt.Sprintf("compile/%s/L%d/c%d/t%d/%s", b.name, level, cores, tier, b.fp)
	return compStore.Get(ctx, key, func(cctx context.Context) (*compEntry, error) {
		// hcc.Compile is not interruptible mid-flight (its profiling is
		// bounded by ProfileBudget); honour an already-dead context
		// before starting the work.
		if err := cctx.Err(); err != nil {
			return nil, err
		}
		comp, err := compileTier(cctx, b, level, cores, tier)
		if err != nil {
			return nil, err
		}
		return &compEntry{comp: comp, fp: comp.Fingerprint()}, nil
	})
}

// CachedBaseline memoizes the sequential run per (workload content,
// timing config, ref), persisting the Result to the disk tier when one
// is configured. The key normalizes the core count away: a sequential
// run executes on core 0 only, so its Result is core-count independent
// (Figure 11a's sweep shares one baseline across 2..16 cores). The
// underlying dynamic trace is keyed by (workload content, ref) alone —
// a baseline has no parallel loops, so its trace is independent of the
// timing config entirely and each new core model only pays a replay;
// every compile that selects no loop shares it (traceKey).
func CachedBaseline(ctx context.Context, name string, arch sim.Config, ref bool) (*sim.Result, error) {
	b, err := workloadBuild(ctx, name)
	if err != nil {
		return nil, err
	}
	return seqStore.Get(ctx, baseKey(name, ref, arch, b.fp), func(cctx context.Context) (*sim.Result, error) {
		return simTrace(cctx, traceKey(b.fp, ref, 0, ""), b.w, nil, arch, ref)
	})
}

// baseKey is CachedBaseline's key: the baseline's Result normalized to
// no core count.
func baseKey(name string, ref bool, arch sim.Config, fp string) string {
	arch.Cores = 0
	return "base/" + name + "/ref=" + strconv.FormatBool(ref) + "/" + arch.Fingerprint() + "/" + fp
}

// ResetCaches clears the memory tier of every harness store (tests use
// this to bound memory, and to force warm-start paths). Disk-tier
// entries, the workload builds and all counters survive. Safe to call
// concurrently with cache users: in-flight computations complete for
// their waiters and are dropped.
func ResetCaches() {
	for _, s := range stores {
		s.Reset()
	}
}

// resultKey derives the result-store key for one (run, timing config)
// pair: the run key names the compiled run, the config fingerprint pins
// the timing model (including MaxSteps, so truncated runs key
// separately).
func resultKey(runKey string, arch sim.Config) string {
	return "res/" + runKey + "/" + arch.Fingerprint()
}

// runKey names a parallel run by how it was requested — workload
// content, level, cores, alias tier and input — so a Result hit needs
// no compile. The trace the run replays is named by content instead
// (traceKey).
func runKey(name string, level hcc.Level, cores, tier int, ref bool, fp string) string {
	return fmt.Sprintf("run/%s/L%d/c%d/t%d/ref=%v/%s", name, level, cores, tier, ref, fp)
}

// traceKey names a recorded trace by content: the input program's
// fingerprint fp and the input selection, plus the core count and the
// compilation's Fingerprint when HCC selected loops. A trace depends on
// nothing else, so every run whose compile emits the same program
// shares one trace, and a compile that selects no loop (compFP "")
// shares its baseline's.
func traceKey(fp string, ref bool, cores int, compFP string) string {
	if compFP == "" {
		return fmt.Sprintf("trace/%s/ref=%v", fp, ref)
	}
	return fmt.Sprintf("trace/%s/ref=%v/c%d/%s", fp, ref, cores, compFP)
}

// record executes the workload's build under arch, as compiled by comp
// (nil for the sequential baseline), and captures its dynamic trace:
// the fill behind every trace-store miss.
func record(ctx context.Context, w *workloads.Workload, comp *hcc.Compiled, arch sim.Config, ref bool) (*sim.Result, *sim.Trace, error) {
	in := w.TrainArgs
	if ref {
		in = w.RefArgs
	}
	res, tr, err := sim.Record(ctx, w.Prog, comp, w.Entry, arch, in...)
	if err != nil {
		return nil, nil, err
	}
	traceRecordings.Add(1)
	return res, tr, nil
}

// loadTrace serves the trace stored under tkey, recording it under arch
// (and persisting it when a disk tier is configured) if no tier has it.
// recorded is the recording run's Result when this call recorded, which
// is already exact for arch.
func loadTrace(ctx context.Context, tkey string, w *workloads.Workload, comp *hcc.Compiled, arch sim.Config, ref bool) (tr *sim.Trace, recorded *sim.Result, err error) {
	tr, err = traceStore.Get(ctx, tkey, func(cctx context.Context) (*sim.Trace, error) {
		res, tr, err := record(cctx, w, comp, arch, ref)
		recorded = res
		return tr, err
	})
	return tr, recorded, err
}

// simTrace serves one simulation through the record/replay fast path:
// the first run for a trace key records it, every later run under any
// timing config — in this process or a later one — replays it. The
// callers cache the Result (resStore, seqStore), which is how the
// batched retimer hands whole sweeps to the cells: a work unit walks the
// trace once for N configs and Puts every lane, so the cells hit the
// result tier and never reach here.
func simTrace(ctx context.Context, tkey string, w *workloads.Workload, comp *hcc.Compiled, arch sim.Config, ref bool) (*sim.Result, error) {
	tr, recorded, err := loadTrace(ctx, tkey, w, comp, arch, ref)
	if err != nil {
		return nil, err
	}
	if recorded != nil {
		return recorded, nil
	}
	traceReplays.Add(1)
	return sim.Replay(ctx, tr, arch)
}

// runOnTier simulates one configuration of the workload compiled at
// level and alias tier (0 = the level default), keyed by workload
// content alone: a cached Result answers without compiling; otherwise
// it compiles (through the compile tier) to name the trace, then
// replays the stored trace or records it.
func runOnTier(ctx context.Context, name string, level hcc.Level, tier int, arch sim.Config, ref bool) (*sim.Result, error) {
	b, err := workloadBuild(ctx, name)
	if err != nil {
		return nil, err
	}
	key := resultKey(runKey(name, level, arch.Cores, tier, ref, b.fp), arch)
	res, err := resStore.Get(ctx, key, func(rctx context.Context) (*sim.Result, error) {
		e, err := cachedCompile(rctx, b, level, arch.Cores, tier)
		if err != nil {
			return nil, err
		}
		return simTrace(rctx, traceKey(b.fp, ref, arch.Cores, e.fp), b.w, e.comp, arch, ref)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// CachedRun is runOnTier's exported face, at the level's default alias
// tier, for callers that also want the compilation: compile (memoized)
// plus simulate through the store-backed record/replay path.
// cmd/helix-run uses it in -cachedir mode so a repeated run serves its
// trace from disk.
func CachedRun(ctx context.Context, name string, level hcc.Level, arch sim.Config, ref bool) (*sim.Result, *hcc.Compiled, error) {
	_, comp, err := CachedCompile(ctx, name, level, arch.Cores)
	if err != nil {
		return nil, nil, err
	}
	res, err := runOnTier(ctx, name, level, 0, arch, ref)
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

// geomeans returns the geomean of each column of rows.
func geomeans(rows []SpeedupRow) []float64 {
	g := make([]float64, len(rows[0].Values))
	for col := range g {
		var xs []float64
		for _, r := range rows {
			xs = append(xs, r.Values[col])
		}
		g[col] = Geomean(xs)
	}
	return g
}

// speedupRows splits vals, listed in cell order with the workload
// outermost, into one row per workload. A row's Values may be appended
// to without touching the next row's.
func speedupRows(names []string, vals []float64) []SpeedupRow {
	k := len(vals) / len(names)
	rows := make([]SpeedupRow, len(names))
	for i, name := range names {
		rows[i] = SpeedupRow{Name: name, Values: vals[i*k : (i+1)*k : (i+1)*k]}
	}
	return rows
}

// figure1Cells lists Figure 1's cells: per workload, HCCv1 then HCCv2
// code on conventional hardware.
func figure1Cells(cores int) []simCell {
	names := workloads.Names()
	cells := make([]simCell, 0, 2*len(names))
	for _, name := range names {
		for _, level := range []hcc.Level{hcc.V1, hcc.V2} {
			cells = append(cells, simCell{name: name, level: level,
				arch: sim.Conventional(cores), base: sim.Conventional(cores)})
		}
	}
	return cells
}

// Figure1 compares HCCv1 and HCCv2 on the conventional 16-core platform
// with the optimistic 10-cycle coherence latency.
func Figure1(ctx context.Context, cores int) (*FigureResult, error) {
	f := &FigureResult{
		Title:  "Figure 1: HCCv1 vs HCCv2 program speedup (conventional hardware)",
		Series: []string{"HCCv1", "HCCv2"},
		Notes:  "Paper shape: CFP2000 rises 2.4x -> 11x with HCCv2; CINT2000 stays ~2x for both.",
	}
	cells := figure1Cells(cores)
	label := func(i int) string {
		return fmt.Sprintf("%s/L%d/conv%d", cells[i].name, cells[i].level, cores)
	}
	rs, err := simulate(ctx, cells, label)
	if err != nil {
		return nil, err
	}
	f.Rows = speedupRows(workloads.Names(), speedups(rs))
	f.Geomean = geomeans(f.Rows)
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
	label := func(i int) string { return fmt.Sprintf("%s/L%d/alias", names[i], hcc.V3) }
	rows, err := parMapCells(ctx, len(names), label, func(ctx context.Context, i int) (*cell, error) {
		return accuracyCell(ctx, names[i])
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		row := SpeedupRow{Name: name}
		if rows[ni] != nil { // nil: degraded under a cell deadline
			row.Values = append([]float64(nil), rows[ni].floats...)
		}
		f.Rows = append(f.Rows, row)
		for ti, v := range row.Values {
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

// accuracyCell serves one workload's row of Figure 2, accuracyRow of
// its HCCv3 compile.
func accuracyCell(ctx context.Context, name string) (*cell, error) {
	return compiledCell(ctx, "accuracy", name, hcc.V3, []string{fmt.Sprintf("tiers=%d", alias.Tiers)},
		func(comp *hcc.Compiled, _ *build) *cell { return &cell{floats: accuracyRow(comp)} })
}

// accuracyRow is one workload's row of Figure 2: per alias tier, the
// mean dependence-analysis accuracy over comp's selected loops that
// carry a memory dependence (1 when none does).
func accuracyRow(comp *hcc.Compiled) []float64 {
	vals := make([]float64, len(alias.Tiers))
	graphs := map[string]*cfg.Graph{}
	sol := alias.Solve(comp.Prog)
	for ti, tier := range alias.Tiers {
		an := sol.At(tier)
		var acc float64
		var n int
		for _, pl := range comp.Loops {
			g, ok := graphs[pl.Fn.Name]
			if !ok {
				g = cfg.New(pl.Fn)
				graphs[pl.Fn.Name] = g
			}
			dg := ddg.Build(comp.Prog, pl.Fn, g, pl.Loop, an)
			if len(dg.MemEdges) == 0 {
				continue
			}
			acc += ddg.Accuracy(dg, pl.Profile)
			n++
		}
		vals[ti] = 1.0
		if n > 0 {
			vals[ti] = acc / float64(n)
		}
	}
	return vals
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
	// One cell per workload; its integer counts sum order-independently.
	names := workloads.IntNames()
	label := func(i int) string { return fmt.Sprintf("%s/L%d/census", names[i], hcc.V3) }
	parts, err := parMapCells(ctx, len(names), label, func(ctx context.Context, i int) (*cell, error) {
		return censusCell(ctx, names[i])
	})
	if err != nil {
		return nil, err
	}
	sum := sumInts(parts, censusLen)
	out.CarriedRegs, out.SharedRegs, out.MemClusters = int(sum[0]), int(sum[1]), int(sum[2])
	for cl, n := range sum[3:] {
		if n > 0 {
			out.ByClass[induction.Class(cl).String()] += int(n)
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

// censusLen is the length of a Figure 3 cell: the carried-register,
// shared-register and memory-cluster counts, then one count per
// predictability class in induction.Class order.
const censusLen = 3 + int(induction.ClassShared) + 1

// censusCell serves one workload's cell of Figure 3, census of its
// HCCv3 compile.
func censusCell(ctx context.Context, name string) (*cell, error) {
	return compiledCell(ctx, "census", name, hcc.V3, []string{fmt.Sprintf("tier=%d", alias.TierLib)},
		func(comp *hcc.Compiled, _ *build) *cell { return &cell{ints: census(comp)} })
}

// census counts, over comp's selected loops and under the library-call
// alias tier, what one workload's cell of Figure 3 holds (censusLen).
func census(comp *hcc.Compiled) []int64 {
	p := make([]int64, censusLen)
	an := alias.New(comp.Prog, alias.TierLib)
	for _, pl := range comp.Loops {
		g := cfg.New(pl.Fn)
		dg := ddg.Build(comp.Prog, pl.Fn, g, pl.Loop, an)
		p[0] += int64(len(dg.CarriedRegs))
		if len(dg.MemEdges) > 0 {
			p[2]++
		}
		for _, info := range induction.Classify(pl.Fn, g, pl.Loop, dg.CarriedRegs) {
			p[3+int(info.Class)]++
			if !info.Class.Predictable() {
				p[1]++
			}
		}
	}
	return p
}

// sumInts adds up the cells' integer counts element by element, n of
// them, skipping cells degraded under a cell deadline (nil).
func sumInts(cells []*cell, n int) []int64 {
	sum := make([]int64, n)
	for _, c := range cells {
		if c == nil {
			continue
		}
		for i, v := range c.ints {
			sum[i] += v
		}
	}
	return sum
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
	out := &Figure4Result{IterCyclesBounds: slices.Clone(fig4Bounds)}
	// One cell per workload; its integer counts sum order-independently.
	names := workloads.IntNames()
	label := func(i int) string { return fmt.Sprintf("%s/L%d/loopstats", names[i], hcc.V3) }
	parts, err := parMapCells(ctx, len(names), label, func(ctx context.Context, i int) (*cell, error) {
		return loopStatsCell(ctx, names[i])
	})
	if err != nil {
		return nil, err
	}
	nb := len(fig4Bounds)
	sum := sumInts(parts, 3+nb+fig4Hops+fig4Consumers)
	out.IterCyclesCDF = fractions(sum[3:3+nb], sum[0])
	out.HopDist = fractions(sum[3+nb:3+nb+fig4Hops], sum[1])
	out.Consumers = fractions(sum[3+nb+fig4Hops:], sum[2])
	return out, nil
}

// Figure 4's histograms: iteration cycle bounds, hop distances 0..8 on
// 16 cores, and 0..16 consumers per shared value.
var fig4Bounds = []int64{10, 25, 50, 75, 110, 260, 1 << 30}

const (
	fig4Hops      = 9
	fig4Consumers = 17
)

// loopStatsCell serves one workload's cell of Figure 4, loopStats of its
// HCCv3 compile.
func loopStatsCell(ctx context.Context, name string) (*cell, error) {
	return compiledCell(ctx, "loopstats", name, hcc.V3, nil,
		func(comp *hcc.Compiled, _ *build) *cell { return &cell{ints: loopStats(comp)} })
}

// loopStats is one workload's cell of Figure 4 over comp's small
// selected loops: the number of iterations, shared-value transfers and
// shared values counted, then the iterations within each of fig4Bounds,
// the transfers at each hop distance (fig4Hops) and the shared values
// with each consumer count (fig4Consumers).
func loopStats(comp *hcc.Compiled) []int64 {
	const cpi = 1.4 // measured in-order CPI on compute-bound code
	// The paper's Figure 4 characterizes the *small* hot loops; exclude
	// the long-iteration passes (their per-iteration bookkeeping sharing
	// is trivially adjacent and would drown the table-driven patterns).
	const smallIterLimit = 75
	p := make([]int64, 3+len(fig4Bounds)+fig4Hops+fig4Consumers)
	cdf := p[3 : 3+len(fig4Bounds)]
	hops := p[3+len(fig4Bounds) : 3+len(fig4Bounds)+fig4Hops]
	cons := p[3+len(fig4Bounds)+fig4Hops:]
	for _, pl := range comp.Loops {
		lp := pl.Profile
		if pl.AvgIterLen > smallIterLimit || pl.AvgIterLen < 10 {
			continue
		}
		for _, il := range lp.IterLens {
			cycles := int64(float64(il) * cpi)
			for bi, b := range fig4Bounds {
				if cycles <= b {
					cdf[bi]++
				}
			}
			p[0]++
		}
		for d, c := range lp.HopDist {
			if d < len(hops) {
				hops[d] += c
				p[1] += c
			}
		}
		for k, c := range lp.ConsumerCounts {
			if k >= 1 && k < len(cons) {
				cons[k] += c
				p[2] += c
			}
		}
	}
	return p
}

// fractions divides each count by total (all zero when total is zero).
func fractions(counts []int64, total int64) []float64 {
	fs := make([]float64, len(counts))
	if total > 0 {
		for i, c := range counts {
			fs[i] = float64(c) / float64(total)
		}
	}
	return fs
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
	// One cell per (workload, level): the compile's coverage and the
	// workload's phase count, which the row takes from its first level.
	label := func(i int) string {
		return fmt.Sprintf("%s/L%d/coverage", names[i/len(levels)], levels[i%len(levels)])
	}
	cells, err := parMapCells(ctx, len(names)*len(levels), label, func(ctx context.Context, i int) (*cell, error) {
		return coverageCell(ctx, names[i/len(levels)], levels[i%len(levels)])
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(names))
	for ni, name := range names {
		rows[ni].Name = name
		for li := range levels {
			c := cells[ni*len(levels)+li]
			if c == nil { // degraded under a cell deadline
				continue
			}
			if li == 0 {
				rows[ni].Phases = int(c.ints[0])
			}
			rows[ni].Coverage[li] = c.floats[0]
		}
	}
	return rows, nil
}

// coverageCell serves one (workload, level) cell of Table 1: the
// workload's phase count and its compile's coverage.
func coverageCell(ctx context.Context, name string, level hcc.Level) (*cell, error) {
	return compiledCell(ctx, "coverage", name, level, nil, func(comp *hcc.Compiled, b *build) *cell {
		return &cell{ints: []int64{int64(b.w.Phases)}, floats: []float64{comp.Coverage}}
	})
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

// figure7Cells lists Figure 7's cells: per workload, HCCv2 code on
// conventional hardware, then HELIX-RC (HCCv3 on the ring cache).
func figure7Cells(cores int) []simCell {
	names := workloads.Names()
	cells := make([]simCell, 0, 2*len(names))
	for _, name := range names {
		cells = append(cells,
			simCell{name: name, level: hcc.V2, arch: sim.Conventional(cores), base: sim.Conventional(cores)},
			simCell{name: name, level: hcc.V3, arch: sim.HelixRC(cores), base: sim.Conventional(cores)})
	}
	return cells
}

// Figure7 is the headline result: HCCv2 on conventional hardware vs
// HELIX-RC (HCCv3 + ring cache), both against sequential execution.
func Figure7(ctx context.Context, cores int) (*FigureResult, error) {
	f := &FigureResult{
		Title:  "Figure 7: HELIX-RC triples the speedup obtained by HCCv2",
		Series: []string{"HCCv2", "HELIX-RC"},
		Notes:  "Paper shape: CINT geomean 2.2x -> 6.85x; CFP 11.4x -> ~12x.",
	}
	cells := figure7Cells(cores)
	label := func(i int) string {
		hw := "conv"
		if i%2 == 1 {
			hw = "rc"
		}
		return fmt.Sprintf("%s/L%d/%s%d", cells[i].name, cells[i].level, hw, cores)
	}
	rs, err := simulate(ctx, cells, label)
	if err != nil {
		return nil, err
	}
	f.Rows = speedupRows(workloads.Names(), speedups(rs))
	f.Geomean = geomeans(f.Rows)
	return f, nil
}

// figure8Cells lists Figure 8's cells: per CINT2000 workload, one per
// decoupling series — HCCv2 code on conventional hardware, then HCCv3
// code with register communication decoupled, plus synchronization,
// plus memory, and all three (HELIX-RC).
func figure8Cells(cores int) []simCell {
	variant := func(reg, syncD, mem bool) sim.Config {
		c := sim.HelixRC(cores)
		c.DecoupleReg, c.DecoupleSync, c.DecoupleMem = reg, syncD, mem
		return c
	}
	names := workloads.IntNames()
	cells := make([]simCell, 0, 5*len(names))
	for _, name := range names {
		cell := func(level hcc.Level, arch sim.Config) simCell {
			return simCell{name: name, level: level, arch: arch, base: sim.Conventional(cores)}
		}
		cells = append(cells,
			cell(hcc.V2, sim.Conventional(cores)),
			cell(hcc.V3, variant(true, false, false)),
			cell(hcc.V3, variant(true, true, false)),
			cell(hcc.V3, variant(true, false, true)),
			cell(hcc.V3, variant(true, true, true)))
	}
	return cells
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
	// The four decoupling variants share the HCCv3 trace: one batched
	// retime per workload covers them.
	cells := figure8Cells(cores)
	label := func(i int) string {
		return fmt.Sprintf("%s/%s/%dcores", cells[i].name, f.Series[i%len(f.Series)], cores)
	}
	rs, err := simulate(ctx, cells, label)
	if err != nil {
		return nil, err
	}
	f.Rows = speedupRows(workloads.IntNames(), speedups(rs))
	f.Geomean = geomeans(f.Rows)
	return f, nil
}

// figure9Cells lists Figure 9's cells: per CINT2000 workload, HCCv3
// code on conventional hardware, then on the ring cache.
func figure9Cells(cores int) []simCell {
	names := workloads.IntNames()
	cells := make([]simCell, 0, 2*len(names))
	for _, name := range names {
		cells = append(cells,
			simCell{name: name, level: hcc.V3, arch: sim.Conventional(cores), base: sim.Conventional(cores)},
			simCell{name: name, level: hcc.V3, arch: sim.HelixRC(cores), base: sim.Conventional(cores)})
	}
	return cells
}

// Figure9 runs HCCv3-generated code on conventional hardware (C) and on
// the ring cache (R), reporting execution time as % of sequential.
func Figure9(ctx context.Context, cores int) (*FigureResult, error) {
	f := &FigureResult{
		Title:  "Figure 9: HCCv3 code on conventional hardware (C) vs ring cache (R), % of sequential time",
		Series: []string{"C %time", "R %time"},
		Notes:  "Paper shape: C bars at or above 100% (no better than sequential); R bars far below.",
	}
	// Both hardware points share the HCCv3 trace: one batched retime
	// per workload.
	cells := figure9Cells(cores)
	label := func(i int) string {
		hw := "conv"
		if i%2 == 1 {
			hw = "rc"
		}
		return fmt.Sprintf("%s/L%d/%s%d", cells[i].name, hcc.V3, hw, cores)
	}
	rs, err := simulate(ctx, cells, label)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(rs))
	for i, r := range rs {
		if r.run != nil {
			vals[i] = 100 * float64(r.run.Cycles) / float64(r.seq.Cycles)
		}
	}
	f.Rows = speedupRows(workloads.IntNames(), vals)
	return f, nil
}
