package harness

// Evaluation plans. A full evaluation's dominant cost is recording
// dynamic traces; everything downstream (batched retiming, the cells
// themselves) replays or reads caches. So a run plans first, executes
// the plan, and only then renders:
//
//   - PlanUnits reads the cell list of every selected experiment (the
//     list its generator renders from; PlanSweep builds an explore
//     grid's), derives the cells' retime groups (cellGroups, per
//     experiment), drops the Results already available, and compiles
//     what remains to name each run's trace by content. A work unit is
//     one distinct trace, its key the trace key, with every run that
//     replays it: a trace shared by two figures, two levels or two alias
//     tiers is planned once, and a warm plan is empty.
//   - RunPlan executes the units. In one process it executes them all
//     on the prefetch pool (see batch.go). Across -shard worker
//     processes that share a cache directory or a helix-serve daemon,
//     each worker claims units coordinator-free through an
//     artifact.Claims implementation — an atomic lease file in a
//     run-scoped claim directory (artifact.Claimer), or the daemon's
//     claim table (artifact.RemoteClaimer) — records and retimes each
//     claimed unit, and leaves a durable done marker. Crashed workers'
//     leases expire and are stolen; every unit is idempotent, so the
//     worst race outcome is duplicated work, never a wrong artifact.
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
	"helixrc/internal/sim"
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

// WorkUnit is one unit of shardable warm-up work: one trace plus every
// run (member) that replays it, with the timing configs each still
// misses. Key is the trace key — named by content, so the same unit
// planned by two workers (or two machines) has the same identity, and
// runs whose compiles emit the same program are one unit.
type WorkUnit struct {
	Key     string
	members []*member
}

// complete reports whether every Result this unit produces is already
// available (memory or disk tier).
func (u *WorkUnit) complete() bool {
	for _, m := range u.members {
		for _, k := range m.keys {
			if _, ok := m.g.store().Peek(k); !ok {
				return false
			}
		}
	}
	return true
}

// PlanUnits enumerates the work units of the named experiments on
// cores cores: one per distinct trace with Results still missing, each
// listing every run that replays it. It plans the groups of each
// experiment's cell list in turn, without merging groups across
// experiments, and skips experiments without one (the analyses, tlp)
// and unknown names. It compiles the runs it must name by content, and
// the unit order is deterministic.
func PlanUnits(ctx context.Context, experiments []string, cores int) ([]WorkUnit, error) {
	var groups []retimeGroup
	for _, name := range experiments {
		if e, ok := FindExperiment(name, cores); ok && e.cells != nil {
			groups = append(groups, cellGroups(e.cells())...)
		}
	}
	return planGroups(ctx, groups)
}

// planGroups plans retime groups into work units, the shared core of
// PlanUnits (paper experiments), PlanSweep (explore grids) and
// prefetchRetimes. It plans each config once (by result key), drops the
// configs whose Results are already available, derives each remaining
// group's trace key — compiling a parallel run to name its trace, on
// the prefetch pool — and merges the groups that share a trace into one
// unit. So no recording or retiming lane is planned twice, a warm plan
// compiles nothing, and units list only missing work, in group order.
// A cancelled ctx stops the compiles and returns ctx.Err().
func planGroups(ctx context.Context, groups []retimeGroup) ([]WorkUnit, error) {
	var members []*member
	planned := map[string]bool{}
	for _, g := range groups {
		b, err := workloadBuild(ctx, g.name)
		if err != nil {
			return nil, fmt.Errorf("harness: planning %s: %w", g.name, err)
		}
		m := &member{g: g, b: b}
		m.g.archs = make([]sim.Config, 0, len(g.archs))
		m.keys = make([]string, 0, len(g.archs))
		for i, k := range g.resultKeys(b.fp) {
			if !planned[k] {
				planned[k] = true
				m.g.archs = append(m.g.archs, g.archs[i])
				m.keys = append(m.keys, k)
			}
		}
		members = append(members, m)
	}
	errs := make([]error, len(members))
	fanOut(ctx, len(members), func(i int) { errs[i] = members[i].plan(ctx) })
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var units []WorkUnit
	unitOf := map[string]int{}
	for i, m := range members {
		if errs[i] != nil {
			return nil, fmt.Errorf("harness: planning %s: %w", m.g.name, errs[i])
		}
		if len(m.keys) == 0 {
			continue
		}
		k, ok := unitOf[m.tkey]
		if !ok {
			k = len(units)
			unitOf[m.tkey] = k
			units = append(units, WorkUnit{Key: m.tkey})
		}
		units[k].members = append(units[k].members, m)
	}
	return units, nil
}

// plan drops m's configs whose Results are already available and, if
// any remain, names the trace m's run replays and the compile that
// records it: none for a baseline, which records the workload's build
// itself, and otherwise the run's compilation, whose Fingerprint names
// the trace by content.
func (m *member) plan(ctx context.Context) error {
	archs, keys := m.g.archs[:0], m.keys[:0]
	for j, k := range m.keys {
		if _, ok := m.g.store().Peek(k); !ok {
			archs = append(archs, m.g.archs[j])
			keys = append(keys, k)
		}
	}
	m.g.archs, m.keys = archs, keys
	if len(keys) == 0 || m.g.baseline {
		m.tkey = traceKey(m.b.fp, true, 0, "")
		return nil
	}
	cores := archs[0].Cores
	e, err := cachedCompile(ctx, m.b, m.g.level, cores, m.g.tier)
	if err != nil {
		return err
	}
	m.tkey, m.comp = traceKey(m.b.fp, true, cores, e.fp), e.comp
	return nil
}

// RunPlan executes the units. Without a claimer it executes every unit
// on the prefetch pool, exactly as a figure's own prefetch does, and
// does nothing while per-cell deadlines are active. With a claimer,
// workers sharing its claim substrate (directory or daemon) partition
// the units cooperatively: each unit is claimed by one worker, executed
// (record + batched retime, publishing into the shared store), and
// marked done; units held elsewhere are revisited until their artifacts
// appear or their lease expires and is stolen. Either way RunPlan is
// best-effort warm-up — a unit that fails here is recomputed by its
// cells, which attribute the error properly.
func RunPlan(ctx context.Context, units []WorkUnit, claimer artifact.Claims) {
	if ctx == nil {
		ctx = context.Background()
	}
	if claimer == nil {
		if CellTimeout() == 0 {
			runUnits(ctx, units)
		}
		return
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
				u.run(ctx)
				finish(i)
				progress = true
				continue
			}
			switch st {
			case artifact.ClaimAcquired:
				u.run(ctx)
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
