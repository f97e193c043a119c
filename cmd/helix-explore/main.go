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
//	helix-explore -workers 4              # shard the sweep over 4 processes
//	helix-explore -workers 2 -remote http://host:8080  # share through helix-serve
//	helix-explore -emitpack               # regenerate scenarios/*.json and exit
//
// Every (family, scenario) pair is recorded exactly once per (cores,
// tier) trace identity; the (link, signals) lanes of the grid are pure
// timing and are served by batched trace replay (sim.ReplayBatch). A
// 36-point grid over two scenarios therefore costs twelve recordings
// plus two baselines, not 72 simulations — which is what makes grid
// reshaping cheap enough to iterate on. Alias tiers often compile to
// the same program, so a solo sweep retimes once per distinct trace:
// tiers of one (scenario, cores) whose recordings are byte-identical
// share one traversal. Sharded workers retime each claimed recording
// on its own.
//
// The sweep runs on the same cached, sharded machinery as helix-bench
// (internal/drive): -cachedir persists recordings across runs, -remote
// shares them through a helix-serve blob backend, and -workers N forks
// N claim-coordinated workers whose merged report is byte-identical to
// a solo run. Scenario packs are loaded from -pack (default scenarios/
// in the working directory); -emitpack regenerates the default packs
// after a deliberate generator change.
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

	"helixrc/internal/artifact"
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

	os.Exit(drive.Run(&o, plan(&o, &sf, runs)))
}

// plan describes the sweep to the shared orchestrator: one experiment
// per family, the phase-A warm-up, and the Explore report section.
func plan(o *drive.Options, sf *sweepFlags, runs []familyRun) *drive.Plan {
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
		exps[i] = drive.Experiment{
			Name:     experimentName(fr.family),
			ClaimKey: harness.ExperimentClaimKey(experimentName(fr.family), 0),
			Run: func(ctx context.Context) (string, error) {
				fam, err := sweepFamily(ctx, sf, level, fr)
				if err != nil {
					return "", err
				}
				fams = append(fams, fam)
				return fam.Format(), nil
			},
		}
	}

	childArgs := []string{
		"-pack", sf.packDir,
		"-level", strconv.Itoa(sf.level),
		"-cores", sf.coresList,
		"-tiers", sf.tiersList,
		"-links", sf.linksList,
		"-signals", sf.signalsList,
	}
	if sf.family != "" {
		childArgs = append(childArgs, "-family", sf.family)
	}

	return &drive.Plan{
		What:             "explore",
		Units:            "famil(ies)",
		IncompleteWhat:   "sweep",
		ReportPrefix:     "EXPLORE",
		TempCachePattern: "helix-explore-cache-*",
		Experiments:      exps,
		MergeOrder:       experimentOrder(runs),
		ChildArgs:        childArgs,
		Warm: func(ctx context.Context, claims artifact.Claims) {
			// Phase A: warm the store. Sharded, the content-keyed unit
			// plan is identical on every worker and the claims partition
			// the recordings; solo, the prefetch batches every timing lane
			// of the tiers that share a distinct trace into one traversal.
			// Either way each (scenario, cores, tier) is recorded exactly
			// once.
			if claims == nil {
				harness.PrefetchSweep(ctx, scenarioNames, level, sf.grid)
				return
			}
			units, err := harness.PlanSweep(ctx, scenarioNames, level, sf.grid)
			if err != nil {
				fmt.Fprintf(os.Stderr, "shard %s: planning sweep units: %v (continuing uncoordinated)\n", o.Shard, err)
				return
			}
			harness.RunPlan(ctx, units, claims)
		},
		Attach: func(r *benchreport.Report) {
			if len(fams) > 0 {
				r.Explore = &benchreport.Explore{Families: fams}
			}
		},
		Banner: func(total time.Duration, workers int) string {
			if workers > 0 {
				return fmt.Sprintf("Sweep complete in %.1fs (%d worker processes): %d families × %d design points.",
					total.Seconds(), workers, len(runs), len(sf.grid))
			}
			return fmt.Sprintf("Sweep complete in %.1fs: %d families × %d design points.",
				total.Seconds(), len(runs), len(sf.grid))
		},
	}
}

// sweepFamily sweeps one family: every (scenario × grid point) cell,
// the geomean across scenarios per point, and the frontier. After the
// phase-A warm-up the cells are pure cache reads, so ParMap here costs
// memory lookups, not simulation.
func sweepFamily(ctx context.Context, sf *sweepFlags, level hcc.Level, fr familyRun) (benchreport.ExploreFamily, error) {
	ns := len(fr.scenarios)
	// Cell i is (grid point i/ns, scenario i%ns), so the slice below
	// recovers each point's per-scenario speedups contiguously.
	speedups, err := harness.ParMap(ctx, len(sf.grid)*ns, func(ctx context.Context, i int) (float64, error) {
		return harness.SweepCell(ctx, fr.scenarios[i%ns], level, sf.grid[i/ns])
	})
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
// result is sorted by family name, which is the canonical experiment
// order a merged sharded report must reassemble.
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
	var runs []familyRun
	for _, p := range packs {
		if sf.family != "" && !want[p.Family] {
			continue
		}
		delete(want, p.Family)
		fr := familyRun{family: p.Family}
		for _, m := range p.Scenarios {
			fr.scenarios = append(fr.scenarios, m.Name)
		}
		runs = append(runs, fr)
	}
	if len(want) > 0 {
		var missing []string
		for f := range want {
			missing = append(missing, f)
		}
		sort.Strings(missing)
		return nil, nil, fmt.Errorf("no pack in %s for family %s", sf.packDir, strings.Join(missing, ", "))
	}
	if len(runs) == 0 {
		return nil, nil, fmt.Errorf("no families selected from %s", sf.packDir)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].family < runs[j].family })
	return packs, runs, nil
}

// experimentName is the report name of one family's sweep.
func experimentName(family string) string { return "explore:" + family }

func experimentOrder(runs []familyRun) []string {
	names := make([]string, len(runs))
	for i, fr := range runs {
		names[i] = experimentName(fr.family)
	}
	return names
}
