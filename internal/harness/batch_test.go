package harness

import (
	"context"
	"crypto/sha256"
	"testing"
	"time"

	"helixrc/internal/hcc"
	"helixrc/internal/irgen"
	"helixrc/internal/scenarios"
	"helixrc/internal/sim"
)

// TestPrefetchRetimesMatchesSolo pins the harness-level equivalence of
// batched retiming: prefetching a multi-config group and then serving
// the cells from the result store yields exactly the Results a cold
// solo run computes, with one recording and one batch issued.
func TestPrefetchRetimesMatchesSolo(t *testing.T) {
	ctx := context.Background()
	const bench = "164.gzip"
	archs := []sim.Config{sim.HelixRC(4), sim.Conventional(4), sim.Abstract(4)}

	// Cold solo reference.
	ResetCaches()
	want := make([]*sim.Result, len(archs))
	for i, arch := range archs {
		res, err := runOn(ctx, bench, hcc.V3, arch, true)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	ResetCaches()
	b0, l0, _ := BatchStats()
	rec0, _ := ReplayStats()
	prefetchRetimes(ctx, []retimeGroup{{name: bench, level: hcc.V3, ref: true, archs: archs}})
	b1, l1, _ := BatchStats()
	rec1, _ := ReplayStats()
	if b1 != b0+1 {
		t.Errorf("prefetch issued %d batches, want 1", b1-b0)
	}
	// The recording lane's Result is exact already; the other two
	// configs retime in one batch.
	if l1 != l0+2 {
		t.Errorf("prefetch batched %d lanes, want 2", l1-l0)
	}
	if rec1 != rec0+1 {
		t.Errorf("prefetch recorded %d traces, want 1", rec1-rec0)
	}
	for i, arch := range archs {
		res, err := runOn(ctx, bench, hcc.V3, arch, true)
		if err != nil {
			t.Fatal(err)
		}
		if *res != *want[i] {
			t.Errorf("config %d: prefetched result differs:\nwant %+v\ngot  %+v", i, want[i], res)
		}
	}
	// The cells above must have been served from the result store.
	rec2, _ := ReplayStats()
	if rec2 != rec1 {
		t.Errorf("cells recorded %d traces after prefetch, want 0", rec2-rec1)
	}
}

// TestPrefetchRetimesMergesTwinTraces pins the twin merge on an explore
// grid: over the pointer-chase and contention scenarios, the alias tiers
// of one (scenario, cores) record traces that are sometimes identical and
// sometimes not. The prefetch must issue exactly one batch per distinct
// trace — counted here independently, by hashing every group's encoded
// trace — over the union of the groups' missing configs, and every cell
// must read exactly the Result a cold solo run computes. Merging two
// different traces would serve some tier another tier's timings.
func TestPrefetchRetimesMergesTwinTraces(t *testing.T) {
	ctx := context.Background()
	var names []string
	for _, f := range []irgen.Family{irgen.PointerChase, irgen.Contention} {
		pack, err := scenarios.DefaultPack(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := scenarios.RegisterPack(pack); err != nil {
			t.Fatal(err)
		}
		for _, m := range pack.Scenarios {
			names = append(names, m.Name)
		}
	}
	var grid []SweepConfig
	for _, cores := range []int{2, 4} {
		for tier := 1; tier <= 5; tier++ {
			for _, link := range []int{1, 8} {
				for _, signals := range []int{0, 1} {
					grid = append(grid, SweepConfig{Cores: cores, Tier: tier, Link: link, Signals: signals})
				}
			}
		}
	}
	var groups []retimeGroup
	for _, name := range names {
		groups = append(groups, sweepGroups(name, hcc.V3, grid)...)
	}

	// Cold solo reference.
	ResetCaches()
	want := map[string]map[SweepConfig]*sim.Result{}
	for _, name := range names {
		want[name] = map[SweepConfig]*sim.Result{}
		for _, c := range grid {
			res, err := runOnTier(ctx, name, hcc.V3, c.Tier, c.Arch(), true)
			if err != nil {
				t.Fatal(err)
			}
			want[name][c] = res
		}
	}

	// Distinct traces among the tiered groups, counted independently.
	ResetCaches()
	distinct := map[[sha256.Size]byte]bool{}
	tiered := 0
	for _, g := range groups {
		if g.baseline {
			continue
		}
		tiered++
		_, tr, err := record(ctx, compiledLoader(g.name, g.level, g.archs[0].Cores, g.tier), g.archs[0], g.ref)
		if err != nil {
			t.Fatal(err)
		}
		data, err := sim.EncodeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		distinct[sha256.Sum256(data)] = true
	}
	t.Logf("%d tiered groups hold %d distinct traces", tiered, len(distinct))
	// Both a merge and a refusal to merge must be exercised.
	if len(distinct) >= tiered || len(distinct) <= len(names)*2 {
		t.Fatalf("%d tiered groups hold %d distinct traces; the grid no longer tells merging from not merging", tiered, len(distinct))
	}

	ResetCaches()
	b0, l0, f0 := BatchStats()
	prefetchRetimes(ctx, groups)
	b1, l1, f1 := BatchStats()
	if got := b1 - b0; got != int64(len(distinct)) {
		t.Errorf("prefetch issued %d batches, want one per distinct trace: %d", got, len(distinct))
	}
	// Each group's recording serves its first config; the other
	// len(grid)/10 - 1 timing lanes of a (cores, tier) are the same for
	// every tier, so a merged batch retimes them once.
	if got, lanes := l1-l0, int64(len(distinct)*(len(grid)/10-1)); got != lanes {
		t.Errorf("prefetch retimed %d lanes, want %d", got, lanes)
	}
	if f1 != f0 {
		t.Errorf("prefetch issued %d one-lane fallbacks, want 0", f1-f0)
	}
	rec0, _ := ReplayStats()
	for _, name := range names {
		for _, c := range grid {
			res, err := runOnTier(ctx, name, hcc.V3, c.Tier, c.Arch(), true)
			if err != nil {
				t.Fatal(err)
			}
			if *res != *want[name][c] {
				t.Errorf("%s %+v: prefetched result differs from solo:\nwant %+v\ngot  %+v", name, c, want[name][c], res)
			}
		}
	}
	if rec1, _ := ReplayStats(); rec1 != rec0 {
		t.Errorf("cells recorded %d traces after prefetch, want 0", rec1-rec0)
	}
}

// TestPrefetchBaselineGroup pins that baseline groups publish into
// CachedBaseline's store under its core-normalized keys: after the
// prefetch, CachedBaseline is a pure cache hit with the identical
// Result.
func TestPrefetchBaselineGroup(t *testing.T) {
	ctx := context.Background()
	const bench = "181.mcf"

	ResetCaches()
	want, err := CachedBaseline(ctx, bench, sim.Conventional(4), true)
	if err != nil {
		t.Fatal(err)
	}

	ResetCaches()
	prefetchRetimes(ctx, []retimeGroup{{
		name: bench, ref: true, baseline: true,
		archs: []sim.Config{sim.Conventional(4)},
	}})
	rec1, rep1 := ReplayStats()
	got, err := CachedBaseline(ctx, bench, sim.Conventional(4), true)
	if err != nil {
		t.Fatal(err)
	}
	rec2, rep2 := ReplayStats()
	if rec2 != rec1 || rep2 != rep1 {
		t.Errorf("CachedBaseline simulated after prefetch (recordings +%d, replays +%d), want pure hit",
			rec2-rec1, rep2-rep1)
	}
	if *got != *want {
		t.Errorf("prefetched baseline differs:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestPrefetchSkipsUnderCellTimeout pins the skip condition: with a
// per-cell deadline active, a batched traversal would serve many cells
// on one cell's clock, so prefetch must be a no-op.
func TestPrefetchSkipsUnderCellTimeout(t *testing.T) {
	SetCellTimeout(time.Hour)
	defer SetCellTimeout(0)
	ResetCaches()
	b0, l0, f0 := BatchStats()
	rec0, _ := ReplayStats()
	prefetchRetimes(context.Background(), []retimeGroup{{
		name: "164.gzip", level: hcc.V3, ref: true,
		archs: []sim.Config{sim.HelixRC(4), sim.Conventional(4)},
	}})
	b1, l1, f1 := BatchStats()
	rec1, _ := ReplayStats()
	if b1 != b0 || l1 != l0 || f1 != f0 || rec1 != rec0 {
		t.Errorf("prefetch did work under a cell timeout: batches +%d lanes +%d fallbacks +%d recordings +%d",
			b1-b0, l1-l0, f1-f0, rec1-rec0)
	}
}
