package harness

// Design-space sweeps over generated scenarios (cmd/helix-explore).
// A sweep evaluates one workload under a grid of
// (cores × alias tier × ring link latency × signal bandwidth) points.
// Only the first two change the compiled program or its dynamic
// behaviour; the last two are pure timing. The grid therefore groups
// into one run per (cores, tier) — plus one sequential baseline per
// scenario — and every (link, signals) lane of a run replays one trace.
// The planner names traces by content (see batch.go): the tiers of one
// core count often compile to the same program, and a compile that
// selects no loop runs its baseline's, so such runs share one recording
// and one batched traversal. That replay economy is what makes a
// 36-point grid cost a handful of recordings per family, and it reuses
// the exact machinery of the paper figures: the same stores, the same
// key grammar (the paper path's alias tier is 0), the same plan
// executor (RunPlan) and claims-based sharding.

import (
	"context"
	"fmt"

	"helixrc/internal/alias"
	"helixrc/internal/hcc"
	"helixrc/internal/sim"
)

// SweepConfig is one design point of an explore grid.
type SweepConfig struct {
	// Cores is the ring size (trace-identity axis).
	Cores int
	// Tier is the 1-based alias.Tiers index the compile uses
	// (trace-identity axis); 0 means the level default.
	Tier int
	// Link is the adjacent-node link latency in cycles (timing axis).
	Link int
	// Signals is the per-link signal bandwidth; 0 = unbounded
	// (timing axis).
	Signals int
}

// Arch materializes the design point's timing configuration.
func (c SweepConfig) Arch() sim.Config {
	a := sim.HelixRC(c.Cores)
	a.Ring.LinkLatency = c.Link
	a.Ring.SignalBandwidth = c.Signals
	return a
}

// Validate bounds the design point.
func (c SweepConfig) Validate() error {
	switch {
	case c.Cores < 2 || c.Cores > 1024:
		return fmt.Errorf("harness: sweep cores %d outside 2..1024", c.Cores)
	case c.Tier < 0 || c.Tier > len(alias.Tiers):
		return fmt.Errorf("harness: sweep alias tier %d outside 0..%d", c.Tier, len(alias.Tiers))
	case c.Link < 1 || c.Link > 1024:
		return fmt.Errorf("harness: sweep link latency %d outside 1..1024", c.Link)
	case c.Signals < 0:
		return fmt.Errorf("harness: sweep signal bandwidth %d negative", c.Signals)
	}
	return nil
}

// sweepGroups enumerates the retime groups of one scenario over the
// grid: a baseline group, then one group per distinct (cores, tier)
// holding every timing lane of that run. Group and lane order follow
// grid order, so planning is deterministic.
func sweepGroups(name string, level hcc.Level, grid []SweepConfig) []retimeGroup {
	groups := []retimeGroup{{
		name: name, ref: true, baseline: true,
		archs: []sim.Config{sim.Conventional(16)},
	}}
	type traceID struct{ cores, tier int }
	byTrace := map[traceID]int{}
	for _, c := range grid {
		id := traceID{c.Cores, c.Tier}
		gi, ok := byTrace[id]
		if !ok {
			gi = len(groups)
			byTrace[id] = gi
			groups = append(groups, retimeGroup{name: name, level: level, ref: true, tier: c.Tier})
		}
		groups[gi].archs = append(groups[gi].archs, c.Arch())
	}
	return groups
}

// PlanSweep enumerates the work units of a sweep — one unit per
// distinct trace, with every missing timing lane of every (scenario,
// cores, tier) run and baseline that replays it — exactly as PlanUnits
// does for the paper experiments. helix-explore executes them with
// RunPlan: solo on the prefetch pool, or claim-partitioned across
// -shard workers, which record each trace exactly once between them.
func PlanSweep(ctx context.Context, names []string, level hcc.Level, grid []SweepConfig) ([]WorkUnit, error) {
	for _, c := range grid {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	var groups []retimeGroup
	for _, name := range names {
		groups = append(groups, sweepGroups(name, level, grid)...)
	}
	return planGroups(ctx, groups)
}

// SweepCell evaluates one (scenario, design point) cell: speedup of the
// tier-compiled parallel run under the point's timing configuration
// over the sequential baseline. After RunPlan over the sweep's units
// this is pure cache reads; cold, it records and replays itself,
// bit-identically.
func SweepCell(ctx context.Context, name string, level hcc.Level, cfg SweepConfig) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	arch := cfg.Arch()
	seq, err := CachedBaseline(ctx, name, sim.Conventional(arch.Cores), true)
	if err != nil {
		return 0, err
	}
	res, err := runOnTier(ctx, name, level, cfg.Tier, arch, true)
	if err != nil {
		return 0, err
	}
	return sim.Speedup(seq, res), nil
}
