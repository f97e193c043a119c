package harness

import (
	"context"
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
	solo := New(Options{})
	want := make([]*sim.Result, len(archs))
	for i, arch := range archs {
		res, err := solo.runOnTier(ctx, bench, hcc.V3, 0, arch, true)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	e := New(Options{})
	e.prefetchRetimes(ctx, []retimeGroup{{name: bench, level: hcc.V3, archs: archs}})
	st := e.Stats()
	if st.Batches != 1 {
		t.Errorf("prefetch issued %d batches, want 1", st.Batches)
	}
	// The recording lane's Result is exact already; the other two
	// configs retime in one batch.
	if st.BatchLanes != 2 {
		t.Errorf("prefetch batched %d lanes, want 2", st.BatchLanes)
	}
	if st.Recordings != 1 {
		t.Errorf("prefetch recorded %d traces, want 1", st.Recordings)
	}
	for i, arch := range archs {
		res, err := e.runOnTier(ctx, bench, hcc.V3, 0, arch, true)
		if err != nil {
			t.Fatal(err)
		}
		if *res != *want[i] {
			t.Errorf("config %d: prefetched result differs:\nwant %+v\ngot  %+v", i, want[i], res)
		}
	}
	// The cells above must have been served from the result store.
	if n := e.Stats().Recordings - st.Recordings; n != 0 {
		t.Errorf("cells recorded %d traces after prefetch, want 0", n)
	}
}

// registerPacks registers the default scenario pack of each family —
// the checked-in scenarios/*.json — and returns the scenario names.
func registerPacks(t *testing.T, families ...irgen.Family) []string {
	t.Helper()
	var names []string
	for _, f := range families {
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
	return names
}

// TestPrefetchRetimesMergesContentUnits pins the content-keyed plan on
// an explore grid: over the pointer-chase and contention scenarios, the
// alias tiers of one (scenario, cores) sometimes compile to the same
// program and sometimes not, and some compiles select no loop and share
// their baseline's trace. The warm-up must record exactly one trace per
// planned unit, and every cell must read exactly the Result a cold solo
// run computes — merging two different traces would serve some tier
// another tier's timings. Both warm-ups are pinned: a figure's
// prefetchRetimes of its cells' groups, and a solo helix-explore's
// PlanSweep plus RunPlan without a claimer. After either, Sweep renders
// the grid from the caches alone — no recording, replay or compile —
// with every speedup equal to the cold solo one.
func TestPrefetchRetimesMergesContentUnits(t *testing.T) {
	ctx := context.Background()
	names := registerPacks(t, irgen.PointerChase, irgen.Contention)
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
	cells := sweepCells(names, hcc.V3, grid)
	groups := cellGroups(cells)

	// Cold solo reference.
	solo := New(Options{})
	want := make([]*sim.Result, len(cells))
	wantSpeedup := make([]float64, len(cells))
	for i, c := range cells {
		seq, err := solo.CachedBaseline(ctx, c.name, c.base, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solo.runOnTier(ctx, c.name, hcc.V3, c.tier, c.arch, true)
		if err != nil {
			t.Fatal(err)
		}
		want[i], wantSpeedup[i] = res, sim.Speedup(seq, res)
	}

	units, err := New(Options{}).planGroups(ctx, groups)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d groups plan into %d units", len(groups), len(units))
	// Both a merge and a refusal to merge must be exercised.
	if len(units) >= len(groups) || len(units) <= len(names)*2 {
		t.Fatalf("%d groups plan into %d units; the grid no longer tells merging from not merging", len(groups), len(units))
	}

	for _, warm := range []struct {
		name string
		run  func(*Env)
	}{
		{"prefetchRetimes", func(e *Env) { e.prefetchRetimes(ctx, groups) }},
		{"RunPlan", func(e *Env) {
			units, err := e.PlanSweep(ctx, names, hcc.V3, grid)
			if err != nil {
				t.Fatal(err)
			}
			e.RunPlan(ctx, units, nil)
		}},
	} {
		e := New(Options{})
		warm.run(e)
		st1 := e.Stats()
		if got := st1.Recordings; got != int64(len(units)) {
			t.Errorf("%s recorded %d traces, want one per planned unit: %d", warm.name, got, len(units))
		}
		got, err := e.Sweep(ctx, names, hcc.V3, grid)
		if err != nil {
			t.Fatal(err)
		}
		st2 := e.Stats()
		if st2.Recordings != st1.Recordings || st2.Replays != st1.Replays || st2.Compiles != st1.Compiles {
			t.Errorf("%s: Sweep recorded %d, replayed %d and compiled %d after the warm-up, want 0 each",
				warm.name, st2.Recordings-st1.Recordings, st2.Replays-st1.Replays, st2.Compiles-st1.Compiles)
		}
		for i, c := range cells {
			if got[i] != wantSpeedup[i] {
				t.Errorf("%s: Sweep cell %d (%s %+v) = %v, want the cold solo %v", warm.name, i, c.name, c.arch, got[i], wantSpeedup[i])
			}
			res, err := e.runOnTier(ctx, c.name, hcc.V3, c.tier, c.arch, true)
			if err != nil {
				t.Fatal(err)
			}
			if *res != *want[i] {
				t.Errorf("%s: %s tier %d %+v: warmed result differs from solo:\nwant %+v\ngot  %+v", warm.name, c.name, c.tier, c.arch, want[i], res)
			}
		}
		if n := e.Stats().Recordings - st2.Recordings; n != 0 {
			t.Errorf("%s: cells recorded %d traces after the warm-up, want 0", warm.name, n)
		}
	}
}

// TestPrefetchBaselineGroup pins that baseline groups publish into
// CachedBaseline's store under its core-normalized keys: after the
// prefetch, CachedBaseline is a pure cache hit with the identical
// Result.
func TestPrefetchBaselineGroup(t *testing.T) {
	ctx := context.Background()
	const bench = "181.mcf"

	want, err := New(Options{}).CachedBaseline(ctx, bench, sim.Conventional(4), true)
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{})
	e.prefetchRetimes(ctx, []retimeGroup{{
		name: bench, baseline: true,
		archs: []sim.Config{sim.Conventional(4)},
	}})
	st1 := e.Stats()
	got, err := e.CachedBaseline(ctx, bench, sim.Conventional(4), true)
	if err != nil {
		t.Fatal(err)
	}
	st2 := e.Stats()
	if st2.Recordings != st1.Recordings || st2.Replays != st1.Replays {
		t.Errorf("CachedBaseline simulated after prefetch (recordings +%d, replays +%d), want pure hit",
			st2.Recordings-st1.Recordings, st2.Replays-st1.Replays)
	}
	if *got != *want {
		t.Errorf("prefetched baseline differs:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestPrefetchSkipsUnderCellTimeout pins the skip condition: with a
// per-cell deadline active, a batched traversal would serve many cells
// on one cell's clock, so prefetch must be a no-op — it must not even
// plan, which compiles.
func TestPrefetchSkipsUnderCellTimeout(t *testing.T) {
	e := New(Options{CellTimeout: time.Hour})
	e.prefetchRetimes(context.Background(), []retimeGroup{{
		name: "164.gzip", level: hcc.V3,
		archs: []sim.Config{sim.HelixRC(4), sim.Conventional(4)},
	}})
	if st := e.Stats(); st.Batches != 0 || st.BatchLanes != 0 || st.BatchFallbacks != 0 || st.Recordings != 0 || st.Compiles != 0 {
		t.Errorf("prefetch did work under a cell timeout: batches %d lanes %d fallbacks %d recordings %d compiles %d",
			st.Batches, st.BatchLanes, st.BatchFallbacks, st.Recordings, st.Compiles)
	}
}
