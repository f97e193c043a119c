package harness

// Design-space sweeps over generated scenarios (cmd/helix-explore).
// A sweep evaluates one workload under a grid of
// (cores × alias tier × ring link latency × signal bandwidth) points.
// Only the first two change the compiled program or its dynamic
// behaviour; the last two are pure timing. The sweep's cells
// (sweepCells) are listed once, and both the plan (PlanSweep) and the
// render (Sweep) read that list. Their groups (batch.go) are one run per
// (cores, tier) — plus one sequential baseline per scenario — and every
// (link, signals) lane of a run replays one trace.
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

// sweepCells lists a sweep's cells, grid point first, then scenario:
// each scenario compiled at level and the point's alias tier, run under
// the point's timing config, against its sequential baseline.
func sweepCells(names []string, level hcc.Level, grid []SweepConfig) []simCell {
	cells := make([]simCell, 0, len(grid)*len(names))
	for _, c := range grid {
		for _, name := range names {
			cells = append(cells, simCell{name: name, level: level, tier: c.Tier,
				arch: c.Arch(), base: sim.Conventional(c.Cores)})
		}
	}
	return cells
}

// PlanSweep enumerates the work units of a sweep's cells — one unit per
// distinct trace, with every missing timing lane of every (scenario,
// cores, tier) run and baseline that replays it — exactly as PlanUnits
// does for the paper experiments. helix-explore executes them with
// RunPlan: solo on the prefetch pool, or claim-partitioned across
// -shard workers, which record each trace exactly once between them.
func (e *Env) PlanSweep(ctx context.Context, names []string, level hcc.Level, grid []SweepConfig) ([]WorkUnit, error) {
	for _, c := range grid {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	return e.planGroups(ctx, cellGroups(sweepCells(names, level, grid)))
}

// Sweep returns the speedup of every (grid point, scenario) cell over
// its sequential baseline, grid point first, then scenario. It does not
// warm the caches: helix-explore runs PlanSweep's units first, after
// which every cell is a cache read, and a warm-up would only peek them
// all again. A cold cell records or replays itself, bit-identically.
func (e *Env) Sweep(ctx context.Context, names []string, level hcc.Level, grid []SweepConfig) ([]float64, error) {
	for _, c := range grid {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	rs, err := e.readCells(ctx, sweepCells(names, level, grid), nil)
	if err != nil {
		return nil, err
	}
	return speedups(rs), nil
}
