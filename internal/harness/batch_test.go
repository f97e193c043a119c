package harness

import (
	"context"
	"testing"
	"time"

	"helixrc/internal/hcc"
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
