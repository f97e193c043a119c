package ringcache

import (
	"math/rand"
	"testing"
)

// driveRing runs a deterministic randomized op sequence against r and
// folds every observable value (returned times, signal counts, flush
// cost, dirty words, stats) into a comparable summary.
type ringSummary struct {
	loadSum int64
	waitSum int64
	sigSum  int64
	flush   int64
	dirty   int
	stats   Stats
	owners  int64
}

func driveRing(r *Ring, numSegs int, seed int64) ringSummary {
	rng := rand.New(rand.NewSource(seed))
	var s ringSummary
	nodes := r.Cfg.Nodes
	t := int64(1)
	for op := 0; op < 4000; op++ {
		core := rng.Intn(nodes)
		addr := int64(rng.Intn(96))
		seg := rng.Intn(numSegs)
		t += int64(rng.Intn(3))
		switch rng.Intn(5) {
		case 0:
			r.Store(core, addr, t)
		case 1:
			s.loadSum += r.Load(core, addr, t)
		case 2:
			r.Signal(seg, core, t)
			s.sigSum += r.SignalCount(seg, core)
		case 3:
			s.waitSum += r.WaitReady(seg, core, t)
		case 4:
			s.owners += int64(r.Owner(addr))
		}
	}
	s.flush = r.FlushCost()
	s.dirty = r.DirtyWords()
	s.stats = r.Stats
	return s
}

// TestRingResetIndistinguishable is the pooling contract the simulator's
// replay path leans on: a Ring that has been dirtied by an arbitrary op
// sequence and Reset must be observationally identical to a freshly
// constructed one — including across a segment-count change, which is
// how the runner's per-segs ring pool reuses them.
func TestRingResetIndistinguishable(t *testing.T) {
	cfg := DefaultConfig(8)
	for _, tc := range []struct {
		name               string
		dirtySegs, useSegs int
	}{
		{"same-segs", 4, 4},
		{"grow-segs", 2, 6},
		{"shrink-segs", 6, 3},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				fresh := New(cfg, tc.useSegs)
				pooled := New(cfg, tc.dirtySegs)
				driveRing(pooled, tc.dirtySegs, seed*977) // arbitrary dirtying traffic
				pooled.Reset(tc.useSegs)

				want := driveRing(fresh, tc.useSegs, seed)
				got := driveRing(pooled, tc.useSegs, seed)
				if got != want {
					t.Fatalf("seed %d: pooled-and-reset ring diverges from fresh:\nfresh:  %+v\npooled: %+v", seed, want, got)
				}
			}
		})
	}
}
