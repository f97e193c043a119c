// helix-explore sweeps the HELIX-RC design space over the generated
// workload families (internal/scenarios): ring link latency × signal
// buffer depth × core count × alias tier, per family, rendering a
// speedup heatmap and a cost/speedup frontier table for each.
//
// Usage:
//
//	helix-explore                         # all families, default grid
//	helix-explore -family pointer-chase   # one family
//	helix-explore -cores 2,4 -links 1,32  # reshape the grid
//	helix-explore -json                   # append a report to EXPLORE_<date>.json
//	helix-explore -verify FILE            # compare output hashes against a report
//	helix-explore -shard 1/2 -runid r1 -cachedir .cache -jsonfile part1.json
//	                                      # worker 1 of a 2-process sweep
//	helix-explore -emitpack               # regenerate scenarios/*.json and exit
//
// Every (family, scenario) pair is recorded at most once per (cores,
// tier); the (link, signals) lanes of the grid are pure timing and are
// served by batched trace replay (sim.ReplayBatch). The sweep plans its
// work units (the harness Env's PlanSweep) and executes them before any
// family renders (RunPlan). Units are named by what the compiler
// emitted: alias tiers often compile to the same program, and a compile
// that parallelizes no loop runs the baseline's, so those runs share
// one recording and one traversal, solo or sharded. A 36-point grid
// over two scenarios therefore costs 6 to 9 recordings, not 72
// simulations — which is what makes grid reshaping cheap enough to
// iterate on.
//
// The sweep runs on the same cached, sharded machinery as helix-bench
// (internal/drive): -cachedir persists recordings across runs, -remote
// shares them through a helix-serve blob backend, and -shard i/n
// workers started with a common -runid claim-partition the sweep; their
// partial reports, merged by `go run ./scripts -merge`, are
// byte-identical to a solo run. Scenario packs are loaded from -pack
// (default scenarios/ in the working directory); -emitpack regenerates
// the default packs after a deliberate generator change.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"helixrc/internal/benchreport"
	"helixrc/internal/cliutil"
	"helixrc/internal/drive"
	"helixrc/internal/harness"
	"helixrc/internal/hcc"
	"helixrc/internal/irgen"
	"helixrc/internal/scenarios"
)

// sweepFlags are the explore-specific knobs: the grid axes, the pack
// source, and the compilation level.
type sweepFlags struct {
	family      string
	packDir     string
	level       int
	coresList   string
	tiersList   string
	linksList   string
	signalsList string
	emitPack    bool

	grid []harness.SweepConfig // derived from the four axis lists
}

func main() {
	var o drive.Options
	var sf sweepFlags
	drive.RegisterFlags(&o, "sweep", "EXPLORE")
	flag.StringVar(&sf.family, "family", "", "comma-separated family filter (default: every checked-in pack)")
	flag.StringVar(&sf.packDir, "pack", "scenarios", "directory of scenario packs (*.json)")
	flag.IntVar(&sf.level, "level", 3, "HCC compilation level for the parallel runs (1..3)")
	flag.StringVar(&sf.coresList, "cores", "2,4,8", "core counts to sweep (comma-separated)")
	flag.StringVar(&sf.tiersList, "tiers", "1,5", "alias tiers to sweep, 1-based alias.Tiers indices (comma-separated)")
	flag.StringVar(&sf.linksList, "links", "1,8,32", "ring link latencies in cycles to sweep (comma-separated)")
	flag.StringVar(&sf.signalsList, "signals", "0,1", "signal buffer depths to sweep, 0 = unbounded (comma-separated)")
	flag.BoolVar(&sf.emitPack, "emitpack", false, "regenerate the default scenario packs into -pack and exit")
	flag.Parse()

	if sf.emitPack {
		os.Exit(emitPacks(sf.packDir))
	}
	if err := cliutil.CheckLevel(sf.level); err != nil {
		log.Fatal(err)
	}
	grid, err := buildGrid(sf.coresList, sf.tiersList, sf.linksList, sf.signalsList)
	if err != nil {
		log.Fatal(err)
	}
	sf.grid = grid

	packs, runs, err := selectFamilies(&sf)
	if err != nil {
		log.Fatal(err)
	}
	// Register every loaded pack (not just the selected families): the
	// registry is content-validated either way, and registration order
	// then matches across workers regardless of their -family split.
	for _, p := range packs {
		if err := scenarios.RegisterPack(p); err != nil {
			log.Fatal(err)
		}
	}

	os.Exit(drive.Run(&o, func(env *harness.Env) *drive.Plan { return plan(env, &sf, runs) }))
}

// plan describes the sweep to the shared orchestrator: one experiment
// per family, the sweep's work units, and the Explore report section.
func plan(env *harness.Env, sf *sweepFlags, runs []familyRun) *drive.Plan {
	level := hcc.Level(sf.level)
	var scenarioNames []string
	for _, fr := range runs {
		scenarioNames = append(scenarioNames, fr.scenarios...)
	}

	// The Explore section is collected alongside the experiment reports:
	// runOne appends its family exactly when the orchestrator accepts its
	// rendered output, so the two stay aligned.
	var fams []benchreport.ExploreFamily
	exps := make([]drive.Experiment, len(runs))
	for i, fr := range runs {
		fr := fr
		name := harness.ExploreName(fr.family)
		exps[i] = drive.Experiment{
			Name:     name,
			ClaimKey: harness.ExperimentClaimKey(name, 0),
			Run: func(ctx context.Context) (string, error) {
				fam, err := sweepFamily(ctx, env, sf, level, fr)
				if err != nil {
					return "", err
				}
				fams = append(fams, fam)
				return fam.Format(), nil
			},
		}
	}

	return &drive.Plan{
		What:           "explore",
		Units:          "famil(ies)",
		IncompleteWhat: "sweep",
		ReportPrefix:   "EXPLORE",
		Experiments:    exps,
		Work: func(ctx context.Context) ([]harness.WorkUnit, error) {
			return env.PlanSweep(ctx, scenarioNames, level, sf.grid)
		},
		Attach: func(r *benchreport.Report) {
			if len(fams) > 0 {
				r.Explore = &benchreport.Explore{Families: fams}
			}
		},
		Banner: func(total time.Duration) string {
			return fmt.Sprintf("Sweep complete in %.1fs: %d families × %d design points.",
				total.Seconds(), len(runs), len(sf.grid))
		},
	}
}

// sweepFamily sweeps one family: every (grid point × scenario) cell,
// the geomean across scenarios per point, and the frontier. The plan
// (env.PlanSweep over the same cells) has run by now, so env.Sweep
// costs cache reads, not simulation.
func sweepFamily(ctx context.Context, env *harness.Env, sf *sweepFlags, level hcc.Level, fr familyRun) (benchreport.ExploreFamily, error) {
	ns := len(fr.scenarios)
	// Cell i is (grid point i/ns, scenario i%ns), so the slice below
	// recovers each point's per-scenario speedups contiguously.
	speedups, err := env.Sweep(ctx, fr.scenarios, level, sf.grid)
	if err != nil {
		return benchreport.ExploreFamily{}, err
	}
	cells := make([]benchreport.ExploreConfig, len(sf.grid))
	for ci, cfg := range sf.grid {
		per := speedups[ci*ns : (ci+1)*ns]
		cells[ci] = benchreport.ExploreConfig{
			Cores:   cfg.Cores,
			Tier:    cfg.Tier,
			Link:    cfg.Link,
			Signals: cfg.Signals,
			Speedup: harness.Geomean(per),
			Cost:    benchreport.ExploreCost(cfg.Cores, cfg.Link, cfg.Signals),
		}
	}
	return benchreport.ExploreFamily{
		Family:    fr.family,
		Scenarios: append([]string(nil), fr.scenarios...),
		Cells:     cells,
		Frontier:  benchreport.ComputeFrontier(cells),
	}, nil
}

// emitPacks regenerates the canonical pack of every family. This is the
// only sanctioned way to update scenarios/*.json: a deliberate knob or
// generator change re-emits, and the round-trip tests hold everything
// else to the checked-in fingerprints.
func emitPacks(dir string) int {
	var packs []scenarios.Pack
	for _, f := range irgen.Families() {
		p, err := scenarios.DefaultPack(f)
		if err != nil {
			log.Printf("building %s pack: %v", f, err)
			return 1
		}
		packs = append(packs, p)
	}
	if err := scenarios.WriteDir(dir, packs); err != nil {
		log.Print(err)
		return 1
	}
	for _, p := range packs {
		fmt.Printf("wrote %s (%d scenarios)\n", filepath.Join(dir, p.Family+".json"), len(p.Scenarios))
	}
	return 0
}

// parseAxis parses one comma-separated sweep axis, rejecting
// duplicates (a duplicated coordinate would double-count grid cells).
func parseAxis(flagName, s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("-%s: empty axis", flagName)
	}
	var vals []int
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-%s %q: %v", flagName, s, err)
		}
		if seen[v] {
			return nil, fmt.Errorf("-%s %q: duplicate value %d", flagName, s, v)
		}
		seen[v] = true
		vals = append(vals, v)
	}
	return vals, nil
}

// buildGrid materializes the sweep grid in canonical order — cores
// outermost, then tier, link, signals — which fixes cell order in the
// rendered heatmaps and the JSON report. Every point is validated here
// so a bad axis fails before any simulation.
func buildGrid(cores, tiers, links, signals string) ([]harness.SweepConfig, error) {
	cs, err := parseAxis("cores", cores)
	if err != nil {
		return nil, err
	}
	ts, err := parseAxis("tiers", tiers)
	if err != nil {
		return nil, err
	}
	ls, err := parseAxis("links", links)
	if err != nil {
		return nil, err
	}
	ss, err := parseAxis("signals", signals)
	if err != nil {
		return nil, err
	}
	var grid []harness.SweepConfig
	for _, c := range cs {
		for _, t := range ts {
			for _, l := range ls {
				for _, s := range ss {
					cfg := harness.SweepConfig{Cores: c, Tier: t, Link: l, Signals: s}
					if err := cfg.Validate(); err != nil {
						return nil, err
					}
					grid = append(grid, cfg)
				}
			}
		}
	}
	return grid, nil
}

// familyRun is one family's share of the sweep: the registry names of
// its scenarios, in pack order.
type familyRun struct {
	family    string
	scenarios []string
}

// selectFamilies loads the packs and applies the -family filter. The
// result is in canonical report order (harness.ReportOrder, by family
// name), the order a merged sharded report reassembles.
func selectFamilies(sf *sweepFlags) ([]scenarios.Pack, []familyRun, error) {
	packs, err := scenarios.LoadDir(sf.packDir)
	if err != nil {
		return nil, nil, err
	}
	want := map[string]bool{}
	if sf.family != "" {
		for _, part := range strings.Split(sf.family, ",") {
			f, err := irgen.ParseFamily(strings.TrimSpace(part))
			if err != nil {
				return nil, nil, err
			}
			want[string(f)] = true
		}
	}
	byName := map[string]familyRun{}
	var names []string
	for _, p := range packs {
		if sf.family != "" && !want[p.Family] {
			continue
		}
		delete(want, p.Family)
		fr := familyRun{family: p.Family}
		for _, m := range p.Scenarios {
			fr.scenarios = append(fr.scenarios, m.Name)
		}
		name := harness.ExploreName(p.Family)
		if _, dup := byName[name]; dup {
			return nil, nil, fmt.Errorf("two packs in %s hold family %s", sf.packDir, p.Family)
		}
		byName[name] = fr
		names = append(names, name)
	}
	if len(want) > 0 {
		var missing []string
		for f := range want {
			missing = append(missing, f)
		}
		sort.Strings(missing)
		return nil, nil, fmt.Errorf("no pack in %s for family %s", sf.packDir, strings.Join(missing, ", "))
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("no families selected from %s", sf.packDir)
	}
	var runs []familyRun
	for _, name := range harness.ReportOrder(names) {
		runs = append(runs, byName[name])
	}
	return packs, runs, nil
}
