package harness

// Batched retiming. The sweep figures (7, 8, 9, 10, 11) evaluate one
// recorded trace under many timing configs; replaying it once per cell
// walks the same instruction stream N times. prefetchRetimes instead
// groups a figure's cells by trace — (workload, level, cores, alias
// tier, input) — and retimes every missing config of a group in one
// traversal with sim.ReplayBatch, publishing each lane's Result to the
// harness result store. The figure's cells then run unchanged: their
// simWithTrace calls hit the result tier and never touch the trace.
// Solo, RunPlan hands the groups of a whole plan (every selected
// experiment's, or a sweep's) to the same retime call before the first
// figure renders, so the figures' own prefetches then only peek; under
// -shard each claimed unit goes through retime on its own.
//
// Groups that share their (workload, cores, input) and differ only in
// level or alias tier — twins — can compile to the same program and so
// record byte-identical traces: the explore grid's alias tiers rarely
// change what HCC emits. A twin still loads or records its own trace
// under its own key, but its retime is deferred until every group of
// the call has its trace; deferred groups whose traces have the same
// sim.Trace.Digest then share one traversal over the union of their
// missing configs, and each lane's Result is published under every
// such group's key. A group without a twin records and retimes at once.
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
// single cell's clock.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"helixrc/internal/artifact"
	"helixrc/internal/hcc"
	"helixrc/internal/sim"
)

// retimeGroup is one recorded trace plus the timing configs a figure
// will evaluate it under. For baseline groups (sequential runs, no
// parallel loops) the trace is level-independent and the lanes publish
// into the baseline store under CachedBaseline's normalized keys;
// otherwise the lanes publish into the result store. All archs of a
// non-baseline group must share one core count (the trace depends on
// it); baseline traces replay at any core count.
type retimeGroup struct {
	name     string
	level    hcc.Level
	ref      bool
	baseline bool
	// tier is the 1-based alias-tier override (0 = level default). It is
	// part of compiled-program identity, so it participates in the
	// compile and trace keys; the explore sweeps are its only setter.
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

// prefetchRetimes warms the result caches for the groups' cells; see
// the package comment above for the steps and the skip conditions.
func prefetchRetimes(ctx context.Context, groups []retimeGroup) {
	if len(groups) == 0 || CellTimeout() > 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	retime(ctx, groups)
}

// retime peek-filters every group's configs once, loads or records the
// trace of every group with configs missing, retimes the groups without
// a twin at once, and then retimes the deferred twins one traversal per
// distinct trace.
func retime(ctx context.Context, groups []retimeGroup) {
	peeked := make([]*pendingGroup, len(groups))
	fanOut(ctx, len(groups), func(i int) { peeked[i] = peekGroup(ctx, &groups[i]) })

	// A twin shares its (workload, cores, input) with another group that
	// has configs missing. Baseline traces are keyed by input alone, so
	// baseline groups have no twins.
	type input struct {
		name  string
		ref   bool
		cores int
	}
	inputOf := func(g *retimeGroup) input { return input{g.name, g.ref, g.archs[0].Cores} }
	var pend []*pendingGroup
	sharing := map[input]int{}
	for _, p := range peeked {
		if p != nil {
			pend = append(pend, p)
			if !p.g.baseline {
				sharing[inputOf(p.g)]++
			}
		}
	}

	deferred := make([]*pendingGroup, len(pend))
	fanOut(ctx, len(pend), func(i int) {
		p := pend[i]
		if !p.load(ctx) {
			return
		}
		if p.g.baseline || sharing[inputOf(p.g)] < 2 {
			retimeLanes(ctx, p.tr, []*pendingGroup{p})
			return
		}
		p.digest = p.tr.Digest()
		deferred[i] = p
	})

	var sets [][]*pendingGroup
	setOf := map[[sha256.Size]byte]int{}
	for _, p := range deferred {
		if p == nil {
			continue
		}
		k, ok := setOf[p.digest]
		if !ok {
			k = len(sets)
			setOf[p.digest] = k
			sets = append(sets, nil)
		}
		sets[k] = append(sets[k], p)
	}
	fanOut(ctx, len(sets), func(i int) { retimeLanes(ctx, sets[i][0].tr, sets[i]) })
}

// pendingGroup is a group with configs missing from its store: its
// keys, the missing configs, and — once loaded or recorded — its trace
// and, for a deferred twin, the trace's digest.
type pendingGroup struct {
	g       *retimeGroup
	tkey    string
	keyOf   func(sim.Config) string
	missing []sim.Config
	tr      *sim.Trace
	digest  [sha256.Size]byte
}

// peekGroup derives g's keys and peeks each config's Result once; nil
// when every Result is cached or the keys cannot be derived.
func peekGroup(ctx context.Context, g *retimeGroup) *pendingGroup {
	if len(g.archs) == 0 {
		return nil
	}
	tkey, keyOf, err := groupKeys(ctx, g)
	if err != nil {
		return nil
	}
	p := &pendingGroup{g: g, tkey: tkey, keyOf: keyOf}
	for _, arch := range g.archs {
		if _, ok := g.store().Peek(keyOf(arch)); !ok {
			p.missing = append(p.missing, arch)
		}
	}
	if len(p.missing) == 0 {
		return nil
	}
	return p
}

// load loads or records p's trace, compiling only to record. The
// recording lane's Result is exact and published directly, so that
// config leaves p.missing. It reports whether configs remain to retime.
func (p *pendingGroup) load(ctx context.Context) bool {
	g := p.g
	load := compiledLoader(g.name, g.level, g.archs[0].Cores, g.tier)
	if g.baseline {
		load = baselineLoader(g.name)
	}
	var recorded *sim.Result
	tr, err := traceStore.Get(ctx, p.tkey, func(cctx context.Context) (*sim.Trace, error) {
		res, tr, err := record(cctx, load, p.missing[0], g.ref)
		recorded = res
		return tr, err
	})
	if err != nil {
		return false
	}
	if recorded != nil {
		g.store().Put(p.keyOf(p.missing[0]), recorded)
		p.missing = p.missing[1:]
	}
	p.tr = tr
	return len(p.missing) > 0
}

// retimeLanes retimes the missing configs of groups whose traces are
// byte-identical (tr is any one of them) in one ReplayBatch over their
// union, deduplicated by config fingerprint, and publishes each lane's
// Result under every such group's key for that config. A one-lane
// traversal is counted as a fallback rather than a batch, so the
// counters keep separating real batching from one-lane retimes.
func retimeLanes(ctx context.Context, tr *sim.Trace, members []*pendingGroup) {
	var lanes []sim.Config
	laneOf := map[string]int{}
	for _, p := range members {
		for _, arch := range p.missing {
			if _, ok := laneOf[arch.Fingerprint()]; !ok {
				laneOf[arch.Fingerprint()] = len(lanes)
				lanes = append(lanes, arch)
			}
		}
	}
	if len(lanes) == 1 {
		batchFallbacks.Add(1)
	} else {
		batchesIssued.Add(1)
		batchLanes.Add(int64(len(lanes)))
	}
	results, errs := sim.ReplayBatch(ctx, tr, lanes)
	// Partial Results (budget, cancellation, per-lane validation) are
	// never cached: the cell recomputes and surfaces the error itself.
	ok := func(i int) bool { return errs[i] == nil && results[i] != nil }
	for i := range lanes {
		if ok(i) {
			traceReplays.Add(1)
		}
	}
	for _, p := range members {
		for _, arch := range p.missing {
			if i := laneOf[arch.Fingerprint()]; ok(i) {
				p.g.store().Put(p.keyOf(arch), results[i])
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

// groupKeys derives a group's trace key and per-config result keys
// from content fingerprints alone — no compilation, no execution — so
// the shard planner can enumerate and deduplicate work units cheaply.
// The key grammar here must stay in lockstep with CachedBaseline and
// runOn (covered by the equivalence tests): a drift would make the
// prefetch warm keys no cell ever reads.
func groupKeys(ctx context.Context, g *retimeGroup) (tkey string, keyOf func(sim.Config) string, err error) {
	fp, err := workloadFingerprint(ctx, g.name)
	if err != nil {
		return "", nil, err
	}
	if g.baseline {
		tkey = fmt.Sprintf("trace/base/%s/ref=%v/%s", g.name, g.ref, fp)
	} else {
		if len(g.archs) == 0 {
			return "", nil, fmt.Errorf("harness: group %s has no configs", g.name)
		}
		tkey = traceKey(g.name, g.level, g.archs[0].Cores, g.tier, g.ref, fp)
	}
	// Baseline lanes land in the baseline store under CachedBaseline's
	// core-normalized key; sweep lanes land in the result store under
	// the full config fingerprint.
	keyOf = func(arch sim.Config) string {
		if g.baseline {
			karch := arch
			karch.Cores = 0
			return fmt.Sprintf("base/%s/ref=%v/%s/%s", g.name, g.ref, karch.Fingerprint(), fp)
		}
		return resultKey(tkey, arch)
	}
	return tkey, keyOf, nil
}
