package harness

// Batched retiming. The sweep figures (7, 8, 9, 10, 11) evaluate one
// recorded trace under many timing configs; replaying it once per cell
// walks the same instruction stream N times. prefetchRetimes instead
// plans a figure's trace groups into work units (planGroups, shard.go),
// one per distinct trace, and executes each unit: it loads or records
// the trace once and retimes every missing config of every run that
// replays it in one sim.ReplayBatch traversal, publishing each lane's
// Result to the harness result stores. The figure's cells then run
// unchanged: their runOn and CachedBaseline calls hit the result tier
// and never touch the trace. Solo, RunPlan executes the units of a
// whole plan (every selected experiment's, or a sweep's) before the
// first figure renders, so the figures' own prefetches then find
// nothing missing and compile nothing; under -shard each claimed unit
// executes on its own.
//
// Traces are named by content (traceKey): levels and alias tiers often
// compile to the same program, and a compile that selects no loop runs
// its baseline's program. Runs that share a trace land in one unit, so
// one recording and one traversal serve them all.
//
// The prefetch pool is sized by GOMAXPROCS independently of the
// engine's -parallel setting, so trace *recording* — the dominant cost
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

// retimeGroup is one run plus the timing configs a figure will evaluate
// it under. For baseline groups (sequential runs, no parallel loops)
// the lanes publish into the baseline store under CachedBaseline's
// normalized keys; otherwise the lanes publish into the result store.
// All archs of a non-baseline group must share one core count (the
// compile depends on it); baseline runs replay at any core count.
type retimeGroup struct {
	name     string
	level    hcc.Level
	ref      bool
	baseline bool
	// tier is the 1-based alias-tier override (0 = level default). It is
	// part of the run's identity, so it participates in the compile and
	// run keys; the explore sweeps are its only setter.
	tier  int
	archs []sim.Config
}

// store is the tier the group's lanes publish into.
func (g *retimeGroup) store() *artifact.Store[*sim.Result] {
	if g.baseline {
		return seqStore
	}
	return resStore
}

// resultKey is the key g's Result under arch publishes under:
// CachedBaseline's core-normalized key for a baseline, runOnTier's
// otherwise. fp is the workload's fingerprint.
func (g *retimeGroup) resultKey(fp string, arch sim.Config) string {
	if g.baseline {
		return baseKey(g.name, g.ref, arch, fp)
	}
	return resultKey(runKey(g.name, g.level, arch.Cores, g.tier, g.ref, fp), arch)
}

// prefetchRetimes warms the result caches for the groups' cells: plan
// the groups, execute the units. See the package comment above for the
// skip conditions.
func prefetchRetimes(ctx context.Context, groups []retimeGroup) {
	if len(groups) == 0 || CellTimeout() > 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if units, err := planGroups(ctx, groups); err == nil {
		runUnits(ctx, units)
	}
}

// runUnits executes units on the prefetch pool.
func runUnits(ctx context.Context, units []WorkUnit) {
	fanOut(ctx, len(units), func(i int) { units[i].run(ctx) })
}

// member is one group's share of a work unit: the configs it still
// misses, the keys their Results publish under, and (once planned) the
// unit's trace key and the program that records it.
type member struct {
	g    retimeGroup // g.archs: the missing configs
	keys []string    // parallel to g.archs
	fp   string      // the workload's fingerprint
	tkey string
	load loader
}

// run executes the unit. It loads or records the trace once, under the
// first member's first config, and publishes the recording's Result to
// every member that asked for that config. It retimes the other configs
// in one ReplayBatch per core count — a trace with loops fixes the
// count, a loop-free one replays at any count but one per traversal —
// and Puts each lane under every member key that asked for it. A
// one-lane traversal is counted as a fallback rather than a batch, so
// the counters keep separating real batching from one-lane retimes.
func (u *WorkUnit) run(ctx context.Context) {
	first := u.members[0]
	recArch := first.g.archs[0]
	tr, recorded, err := loadTrace(ctx, u.Key, first.load, recArch, first.g.ref)
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
			d, fp := dest{m.g.store(), m.keys[i]}, arch.Fingerprint()
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
			batchFallbacks.Add(1)
		} else {
			batchesIssued.Add(1)
			batchLanes.Add(int64(len(batch)))
		}
		results, errs := sim.ReplayBatch(ctx, tr, batch)
		for i, arch := range batch {
			// Partial Results (budget, cancellation, per-lane validation)
			// are never cached: the cell recomputes and surfaces the error.
			if errs[i] != nil || results[i] == nil {
				continue
			}
			traceReplays.Add(1)
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
