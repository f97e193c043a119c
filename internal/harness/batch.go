package harness

// Batched retiming. A trace figure (fig1, fig7-fig12) or an explore
// sweep is a grid of cells, each one run under one timing config read
// against its sequential baseline, and one function per figure lists
// them (simCell). Both the plan and the render read that list. The
// cells' retime groups (cellGroups) are one baseline group per workload
// and one run group per (workload, level, alias tier, cores), each
// holding every config its cells read. planGroups (shard.go) plans the
// groups into work units, one per distinct trace, and executing a unit
// loads or records its trace once and retimes every missing config of
// every run that replays it in one sim.ReplayBatch traversal,
// publishing each lane's Result to the harness result stores. The
// figure then reads its cells (readCells) through the CachedBaseline
// and runOnTier calls a cold cell would make, which hit the result tier
// and never touch the trace. Solo, RunPlan executes the units of a
// whole plan (PlanUnits over the selected experiments' cell lists,
// PlanSweep over a grid's) before the first figure renders, so a
// figure's own warm-up (simulate) then finds nothing missing and
// compiles nothing; under -shard each claimed unit executes on its own.
//
// Traces are named by content (traceKey): levels and alias tiers often
// compile to the same program, and a compile that selects no loop runs
// its baseline's program. Runs that share a trace land in one unit, so
// one recording and one traversal serve them all.
//
// The prefetch pool is sized by GOMAXPROCS independently of the Env's
// Options.Parallelism, so trace *recording* — the dominant cost
// of a cold Figure 11a, which needs a fresh trace per core count —
// fans out across CPUs even when the cells themselves run
// sequentially. Figures stay byte-identical at any parallelism: the
// prefetch only warms caches with Results that are bit-identical to
// what each cell would have computed solo (sim.ReplayBatch's contract,
// enforced by the equivalence tests; a Result is a function of the
// trace's content and the config alone), and the cells still assemble
// in index order.
//
// Prefetching is best-effort: any error is dropped and the affected
// cells recompute solo, attributing the failure properly. It is
// skipped entirely when per-cell deadlines are active — a batched
// traversal serves many cells, so it must not be accounted against any
// single cell's clock — and it skips before planning, which compiles.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"helixrc/internal/artifact"
	"helixrc/internal/hcc"
	"helixrc/internal/sim"
)

// simCell is one cell of a trace figure or an explore sweep: workload
// name compiled at level and alias tier (0 = the level default) and run
// under arch, read against its sequential baseline under base. Every
// cell reads the ref input.
type simCell struct {
	name       string
	level      hcc.Level
	tier       int
	arch, base sim.Config
}

// cellGroups derives the retime groups cells read: one baseline group
// per workload and one run group per (workload, level, tier, cores), in
// first-seen order, each listing its configs in cell order. planGroups
// plans a config once however many cells list it.
func cellGroups(cells []simCell) []retimeGroup {
	type groupID struct {
		name        string
		baseline    bool
		level       hcc.Level
		tier, cores int
	}
	// A cell adds at most two groups; sizing for that spares the renders
	// the regrowth, as the figure*Cells lists do.
	groups := make([]retimeGroup, 0, 2*len(cells))
	index := make(map[groupID]int, 2*len(cells))
	add := func(id groupID, arch sim.Config) {
		i, ok := index[id]
		if !ok {
			i = len(groups)
			index[id] = i
			groups = append(groups, retimeGroup{name: id.name, level: id.level, baseline: id.baseline, tier: id.tier})
		}
		groups[i].archs = append(groups[i].archs, arch)
	}
	for _, c := range cells {
		add(groupID{name: c.name, baseline: true}, c.base)
		add(groupID{c.name, false, c.level, c.tier, c.arch.Cores}, c.arch)
	}
	return groups
}

// cellResult is one cell's baseline and run Results. A cell degraded
// under a per-cell deadline (see Partials) reads as the zero value.
type cellResult struct{ seq, run *sim.Result }

// speedup is the run's speedup over its baseline, 0 for a degraded cell.
func (r cellResult) speedup() float64 {
	if r.run == nil {
		return 0
	}
	return sim.Speedup(r.seq, r.run)
}

// speedups returns each cell's speedup, in cell order.
func speedups(rs []cellResult) []float64 {
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = r.speedup()
	}
	return vals
}

// readCells reads each cell's Results in cell order on the engine's
// worker pool; label names the cells for errors and partial figures
// (nil: unnamed). After a warm-up every read is a result-tier hit, and
// a cold cell records or replays itself, bit-identically.
func (e *Env) readCells(ctx context.Context, cells []simCell, label func(int) string) ([]cellResult, error) {
	return parMapCells(ctx, e.workers, e.cellTimeout, len(cells), label, func(ctx context.Context, i int) (cellResult, error) {
		c := cells[i]
		seq, err := e.CachedBaseline(ctx, c.name, c.base, true)
		if err != nil {
			return cellResult{}, err
		}
		run, err := e.runOnTier(ctx, c.name, c.level, c.tier, c.arch, true)
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{seq, run}, nil
	})
}

// simulate warms the result caches for cells — prefetchRetimes on their
// groups, which only peeks after an evaluation-wide RunPlan — and reads
// them.
func (e *Env) simulate(ctx context.Context, cells []simCell, label func(int) string) ([]cellResult, error) {
	e.prefetchRetimes(ctx, cellGroups(cells))
	return e.readCells(ctx, cells, label)
}

// retimeGroup is one run plus the timing configs its cells read it
// under, over the ref input. For baseline groups (sequential runs, no
// parallel loops) the lanes publish into the baseline store under
// CachedBaseline's normalized keys; otherwise the lanes publish into the
// result store. All archs of a non-baseline group must share one core
// count (the compile depends on it); baseline runs replay at any core
// count.
type retimeGroup struct {
	name     string
	level    hcc.Level
	baseline bool
	// tier is the 1-based alias-tier override (0 = level default). It is
	// part of the run's identity, so it participates in the compile and
	// run keys; only the explore sweeps' cells set it.
	tier  int
	archs []sim.Config
}

// store is the store of e that g's lanes publish into.
func (g *retimeGroup) store(e *Env) *artifact.Store[*sim.Result] {
	if g.baseline {
		return e.seqStore
	}
	return e.resStore
}

// resultKeys returns the key g's Result under each arch publishes
// under, in arch order: CachedBaseline's core-normalized key for a
// baseline, runOnTier's otherwise. fp is the workload's fingerprint. A
// parallel group's configs share one core count (cellGroups), so its
// run key is formatted once.
func (g *retimeGroup) resultKeys(fp string) []string {
	keys := make([]string, len(g.archs))
	if g.baseline {
		for i, arch := range g.archs {
			keys[i] = baseKey(g.name, true, arch, fp)
		}
		return keys
	}
	var rk string
	for i, arch := range g.archs {
		if i == 0 || arch.Cores != g.archs[i-1].Cores {
			rk = runKey(g.name, g.level, arch.Cores, g.tier, true, fp)
		}
		keys[i] = resultKey(rk, arch)
	}
	return keys
}

// prefetchRetimes warms the result caches for the groups: plan them,
// execute the units. See the package comment above for the skip
// conditions.
func (e *Env) prefetchRetimes(ctx context.Context, groups []retimeGroup) {
	if len(groups) == 0 || e.cellTimeout > 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if units, err := e.planGroups(ctx, groups); err == nil {
		e.runUnits(ctx, units)
	}
}

// runUnits executes units on the prefetch pool.
func (e *Env) runUnits(ctx context.Context, units []WorkUnit) {
	fanOut(ctx, len(units), func(i int) { units[i].run(ctx, e) })
}

// member is one group's share of a work unit: the configs it still
// misses, the keys their Results publish under, the workload's build,
// and (once planned) the unit's trace key and the compile that records
// it (nil for a baseline).
type member struct {
	g    retimeGroup // g.archs: the missing configs
	keys []string    // parallel to g.archs
	b    *build
	tkey string
	comp *hcc.Compiled
}

// run executes the unit. It loads or records the trace once, under the
// first member's first config, and publishes the recording's Result to
// every member that asked for that config. It retimes the other configs
// in one ReplayBatch per core count — a trace with loops fixes the
// count, a loop-free one replays at any count but one per traversal —
// and Puts each lane under every member key that asked for it. A
// one-lane traversal is counted as a fallback rather than a batch, so
// the counters keep separating real batching from one-lane retimes.
func (u *WorkUnit) run(ctx context.Context, e *Env) {
	first := u.members[0]
	recArch := first.g.archs[0]
	tr, recorded, err := e.loadTrace(ctx, u.Key, first.b.w, first.comp, recArch, true)
	if err != nil {
		return
	}
	type dest struct {
		store *artifact.Store[*sim.Result]
		key   string
	}
	var cores []int                 // core counts in first-seen order
	lanes := map[int][]sim.Config{} // per core count, one per config
	dests := map[string][]dest{}    // per config fingerprint
	for _, m := range u.members {
		for i, arch := range m.g.archs {
			d, fp := dest{m.g.store(e), m.keys[i]}, arch.Fingerprint()
			if recorded != nil && fp == recArch.Fingerprint() {
				d.store.Put(d.key, recorded)
				continue
			}
			if dests[fp] == nil {
				if lanes[arch.Cores] == nil {
					cores = append(cores, arch.Cores)
				}
				lanes[arch.Cores] = append(lanes[arch.Cores], arch)
			}
			dests[fp] = append(dests[fp], d)
		}
	}
	for _, c := range cores {
		batch := lanes[c]
		if len(batch) == 1 {
			e.batchFallbacks.Add(1)
		} else {
			e.batches.Add(1)
			e.batchLanes.Add(int64(len(batch)))
		}
		results, errs := sim.ReplayBatch(ctx, tr, batch)
		for i, arch := range batch {
			// Partial Results (budget, cancellation, per-lane validation)
			// are never cached: the cell recomputes and surfaces the error.
			if errs[i] != nil || results[i] == nil {
				continue
			}
			e.replays.Add(1)
			for _, d := range dests[arch.Fingerprint()] {
				d.store.Put(d.key, results[i])
			}
		}
	}
}

// fanOut runs f(0..n-1) on the prefetch pool — up to GOMAXPROCS
// goroutines — and returns when every started call has finished. Items
// not yet started when ctx is cancelled are skipped.
func fanOut(ctx context.Context, n int, f func(i int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
