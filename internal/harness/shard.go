package harness

// Evaluation plans. A full evaluation's dominant cost is recording
// dynamic traces; everything downstream (batched retiming, the cells
// themselves) replays or reads caches. So a run plans first, executes
// the plan, and only then renders:
//
//   - PlanUnits (PlanSweep for explore grids) enumerates every selected
//     experiment's trace groups as stable content-keyed work units (one
//     unit per recorded trace, its key the trace key), merging
//     duplicates across experiments so a trace shared by two figures is
//     planned once.
//   - RunPlan executes the units. In one process it retimes all of them
//     in one batched call (see batch.go), so twins across units share a
//     traversal. Across -shard worker processes that share a cache
//     directory or a helix-serve daemon, each worker claims units
//     coordinator-free through an artifact.Claims implementation — an
//     atomic lease file in a run-scoped claim directory
//     (artifact.Claimer), or the daemon's claim table
//     (artifact.RemoteClaimer) — records and retimes each claimed unit,
//     and leaves a durable done marker. Crashed workers' leases expire
//     and are stolen; every unit is idempotent, so the worst race
//     outcome is duplicated work, never a wrong artifact.
//
// The experiments then render their figures from the hot caches. Sharded
// workers claim whole experiments (see ExperimentClaimKey) and each
// writes a partial report that `scripts -merge` reassembles
// deterministically (benchreport.Merge) — byte-identical figures to a
// solo run, because every cached Result is bit-identical to what the
// cell would have computed itself.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"helixrc/internal/artifact"
	"helixrc/internal/hcc"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// ExperimentNames returns the canonical experiment order — the
// sequence a solo run presents and a merged sharded report must
// reassemble.
func ExperimentNames() []string {
	exps := Experiments(16)
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	return names
}

// exploreNamePrefix marks the report name of a helix-explore sweep.
const exploreNamePrefix = "explore:"

// ExploreName is the report name of one family's helix-explore sweep.
func ExploreName(family string) string { return exploreNamePrefix + family }

// ReportOrder returns the experiments among names that a report may
// carry, each once, in canonical report order: the paper's experiments
// in ExperimentNames order, then the explore sweeps (ExploreName) by
// family name. helix-explore presents its families in this order and
// `scripts -merge` reassembles partial reports in it; a name it does
// not recognize is left out, so benchreport.Merge rejects it.
func ReportOrder(names []string) []string {
	have := map[string]bool{}
	var sweeps []string
	for _, n := range names {
		if !have[n] && strings.HasPrefix(n, exploreNamePrefix) && n != exploreNamePrefix {
			sweeps = append(sweeps, n)
		}
		have[n] = true
	}
	var order []string
	for _, n := range ExperimentNames() {
		if have[n] {
			order = append(order, n)
		}
	}
	sort.Strings(sweeps)
	return append(order, sweeps...)
}

// ExperimentClaimKey is the work-claiming key for one whole experiment
// at one core count. It embeds the cache scheme so workers built with
// different key grammars never pair up on one claim.
func ExperimentClaimKey(name string, cores int) string {
	return fmt.Sprintf("exp/%s/c%d/%s", name, cores, cacheScheme)
}

// experimentGroups enumerates the trace groups an experiment's cells
// will consume, exactly as the figure generators construct them (the
// generators call this too, so planner and figure can never drift).
// Experiments with no trace groups (the static analyses, and TLP,
// whose cells cache their Results directly) return nil.
func experimentGroups(exp string, cores int) []retimeGroup {
	conv := func(c int) []sim.Config { return []sim.Config{sim.Conventional(c)} }
	switch exp {
	case "fig1":
		names := workloads.Names()
		groups := make([]retimeGroup, 0, 3*len(names))
		for _, name := range names {
			groups = append(groups,
				retimeGroup{name: name, ref: true, baseline: true, archs: conv(cores)},
				retimeGroup{name: name, level: hcc.V1, ref: true, archs: conv(cores)},
				retimeGroup{name: name, level: hcc.V2, ref: true, archs: conv(cores)},
			)
		}
		return groups
	case "fig7":
		names := workloads.Names()
		groups := make([]retimeGroup, 0, 3*len(names))
		for _, name := range names {
			groups = append(groups,
				retimeGroup{name: name, ref: true, baseline: true, archs: conv(cores)},
				retimeGroup{name: name, level: hcc.V2, ref: true, archs: conv(cores)},
				retimeGroup{name: name, level: hcc.V3, ref: true, archs: []sim.Config{sim.HelixRC(cores)}},
			)
		}
		return groups
	case "fig8":
		configs := figure8Configs(cores)
		names := workloads.IntNames()
		groups := make([]retimeGroup, 0, 3*len(names))
		for _, name := range names {
			groups = append(groups,
				retimeGroup{name: name, ref: true, baseline: true, archs: conv(cores)},
				retimeGroup{name: name, level: hcc.V2, ref: true, archs: configs[:1]},
				retimeGroup{name: name, level: hcc.V3, ref: true, archs: configs[1:]},
			)
		}
		return groups
	case "fig9":
		names := workloads.IntNames()
		groups := make([]retimeGroup, 0, 2*len(names))
		for _, name := range names {
			groups = append(groups,
				retimeGroup{name: name, ref: true, baseline: true, archs: conv(cores)},
				retimeGroup{name: name, level: hcc.V3, ref: true,
					archs: []sim.Config{sim.Conventional(cores), sim.HelixRC(cores)}},
			)
		}
		return groups
	case "fig10":
		coreCfgs := figure10CoreConfigs()
		names := workloads.IntNames()
		groups := make([]retimeGroup, 0, 2*len(names))
		for _, name := range names {
			rcArchs := make([]sim.Config, len(coreCfgs))
			seqArchs := make([]sim.Config, len(coreCfgs))
			for i, cc := range coreCfgs {
				a := sim.HelixRC(cores)
				a.Core = cc
				rcArchs[i] = a
				s := sim.Conventional(cores)
				s.Core = cc
				seqArchs[i] = s
			}
			groups = append(groups,
				retimeGroup{name: name, ref: true, baseline: true, archs: seqArchs},
				retimeGroup{name: name, level: hcc.V3, ref: true, archs: rcArchs},
			)
		}
		return groups
	case "fig11a":
		return figure11Groups("cores")
	case "fig11b":
		return figure11Groups("link")
	case "fig11c":
		return figure11Groups("signals")
	case "fig11d":
		return figure11Groups("memory")
	case "fig12":
		names := workloads.Names()
		groups := make([]retimeGroup, 0, 2*len(names))
		for _, name := range names {
			groups = append(groups,
				retimeGroup{name: name, ref: true, baseline: true, archs: conv(cores)},
				retimeGroup{name: name, level: hcc.V3, ref: true, archs: []sim.Config{sim.HelixRC(cores)}},
			)
		}
		return groups
	}
	// fig2, fig3, fig4, table1: compile/analysis only. tlp: execution-
	// driven on the abstract machine, one persisted Result per cell
	// (tlpRun) with no trace to share.
	return nil
}

// WorkUnit is one unit of shardable warm-up work: one recorded trace
// plus every timing config any selected experiment evaluates it under.
// Key is the trace key — content-addressed, so the same unit planned
// by two workers (or two machines) has the same identity.
type WorkUnit struct {
	Key        string
	group      retimeGroup
	resultKeys []string // parallel to group.archs
}

// complete reports whether every Result this unit produces is already
// available (memory or disk tier).
func (u *WorkUnit) complete() bool {
	for _, k := range u.resultKeys {
		if _, ok := u.group.store().Peek(k); !ok {
			return false
		}
	}
	return true
}

// PlanUnits enumerates the work units of the named experiments,
// merging groups that share a trace and deduplicating configs that
// share a result key, so no recording or retiming lane is ever planned
// twice. The unit list is deterministic: same experiments, same order,
// on every worker.
func PlanUnits(ctx context.Context, experiments []string, cores int) ([]WorkUnit, error) {
	var groups []retimeGroup
	for _, exp := range experiments {
		groups = append(groups, experimentGroups(exp, cores)...)
	}
	return planGroups(ctx, groups)
}

// planGroups merges retime groups into deduplicated work units — the
// shared core of PlanUnits (paper experiments) and PlanSweep (explore
// grids): groups sharing a trace key merge, configs sharing a result
// key are planned once, and the unit order is deterministic.
func planGroups(ctx context.Context, groups []retimeGroup) ([]WorkUnit, error) {
	byKey := map[string]*WorkUnit{}
	seen := map[string]map[string]bool{}
	var order []string
	for _, g := range groups {
		if len(g.archs) == 0 {
			continue
		}
		tkey, keyOf, err := groupKeys(ctx, &g)
		if err != nil {
			return nil, fmt.Errorf("harness: planning %s: %w", g.name, err)
		}
		u, ok := byKey[tkey]
		if !ok {
			u = &WorkUnit{Key: tkey, group: retimeGroup{
				name: g.name, level: g.level, ref: g.ref, baseline: g.baseline, tier: g.tier,
			}}
			byKey[tkey] = u
			seen[tkey] = map[string]bool{}
			order = append(order, tkey)
		}
		for _, arch := range g.archs {
			rk := keyOf(arch)
			if seen[tkey][rk] {
				continue
			}
			seen[tkey][rk] = true
			u.group.archs = append(u.group.archs, arch)
			u.resultKeys = append(u.resultKeys, rk)
		}
	}
	units := make([]WorkUnit, len(order))
	for i, k := range order {
		units[i] = *byKey[k]
	}
	return units, nil
}

// RunPlan executes the units. Without a claimer it hands every unit's
// group to one batched retime, exactly as a figure's own prefetch does,
// and does nothing while per-cell deadlines are active. With a claimer,
// workers sharing its claim substrate (directory or daemon) partition
// the units cooperatively: each unit is claimed by one worker, retimed
// on its own (record + batched retime, publishing into the shared
// store), and marked done; units held elsewhere are revisited until
// their artifacts appear or their lease expires and is stolen. Either
// way RunPlan is best-effort warm-up — a unit that fails here is
// recomputed by its cells, which attribute the error properly.
func RunPlan(ctx context.Context, units []WorkUnit, claimer artifact.Claims) {
	if claimer == nil {
		groups := make([]retimeGroup, len(units))
		for i := range units {
			groups[i] = units[i].group
		}
		prefetchRetimes(ctx, groups)
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	done := make([]bool, len(units))
	held := make([]bool, len(units))
	remaining := len(units)
	// Start each worker at a different offset so they claim disjoint
	// prefixes instead of colliding on unit 0 and serializing.
	start := 0
	for _, b := range []byte(claimer.Owner()) {
		start = (start*131 + int(b)) % max(len(units), 1)
	}
	finish := func(i int) {
		done[i] = true
		remaining--
	}
	for remaining > 0 && ctx.Err() == nil {
		progress := false
		for off := 0; off < len(units); off++ {
			i := (start + off) % len(units)
			if done[i] {
				continue
			}
			u := &units[i]
			if u.complete() {
				// Its artifacts appeared without us computing them; if we
				// ever saw another worker's live lease on it, that worker
				// recorded it — a duplicate recording the claims suppressed.
				if held[i] {
					claimer.NoteDuplicate()
				}
				finish(i)
				progress = true
				continue
			}
			lease, st, err := claimer.Acquire(u.Key)
			if err != nil {
				// Claim directory unusable: degrade to solo execution. The
				// unit is idempotent, so the worst outcome is duplicated
				// work across workers, never a wrong artifact.
				retime(ctx, []retimeGroup{u.group})
				finish(i)
				progress = true
				continue
			}
			switch st {
			case artifact.ClaimAcquired:
				retime(ctx, []retimeGroup{u.group})
				lease.Done("")
				finish(i)
				progress = true
			case artifact.ClaimDone:
				claimer.NoteDuplicate()
				finish(i)
				progress = true
			case artifact.ClaimHeld:
				held[i] = true
			}
		}
		if !progress {
			select {
			case <-ctx.Done():
				return
			case <-time.After(25 * time.Millisecond):
			}
		}
	}
}
