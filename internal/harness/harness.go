// Package harness wires workloads, the HCC compiler and the simulator
// into the experiments of the paper's evaluation (Section 6). Every table
// and figure has a generator here; the root bench_test.go and
// cmd/helix-bench expose them.
package harness

import (
	"context"
	"fmt"
	"math"

	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// Outcome bundles one compile-and-simulate measurement.
type Outcome struct {
	Name     string
	Level    hcc.Level
	Comp     *hcc.Compiled
	Seq      *sim.Result
	Par      *sim.Result
	Speedup  float64
	Coverage float64
}

// applySlow routes the run through the reference simulator stepper when
// SetSlowSim is in effect (results are identical; only wall-clock
// changes).
func applySlow(arch sim.Config) sim.Config {
	if SlowSim() {
		arch.SlowStep = true
	}
	return arch
}

// Baseline simulates the unparallelized program.
func Baseline(ctx context.Context, name string, arch sim.Config, ref bool) (*sim.Result, error) {
	w, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	return sim.Run(ctx, w.Prog, nil, w.Entry, applySlow(arch), args(w, ref)...)
}

func args(w *workloads.Workload, ref bool) []int64 {
	if ref {
		return w.RefArgs
	}
	return w.TrainArgs
}

// Compile builds a fresh copy of the workload and compiles it at the
// given level. A fresh copy is required because HCC mutates the program.
func Compile(name string, level hcc.Level, cores int) (*workloads.Workload, *hcc.Compiled, error) {
	return compileTier(context.Background(), name, level, cores, 0)
}

// compileTier is Compile with an alias-tier override (0 = the level's
// engineered default, which is every path except the explore sweeps).
// The training profile comes from the profile tier, shared with every
// other level and tier compiled for the same (workload, cores).
func compileTier(ctx context.Context, name string, level hcc.Level, cores, tier int) (*workloads.Workload, *hcc.Compiled, error) {
	prof, err := trainedProfile(ctx, name, cores)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	w, err := workloads.Get(name)
	if err != nil {
		return nil, nil, err
	}
	compiles.Add(1)
	comp, err := hcc.CompileWith(w.Prog, w.Entry, hcc.Options{
		Level: level, Cores: cores, TrainArgs: w.TrainArgs, AliasTier: tier,
	}, prof)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	return w, comp, nil
}

// trainedProfile serves the training profile of the workload on a ring
// of cores cores. A profile depends on the program, its training args,
// the core count and the profile budget, but not on the level or the
// alias tier, so the first compile of an input trains it — on a fresh
// build of its own — and every later one reads the same immutable
// Profile from the profile tier.
func trainedProfile(ctx context.Context, name string, cores int) (*interp.Profile, error) {
	fp, err := workloadFingerprint(ctx, name)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("profile/%s/c%d/%s", name, cores, fp)
	return profStore.Get(ctx, key, func(context.Context) (*interp.Profile, error) {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		profiles.Add(1)
		return hcc.Train(w.Prog, w.Entry, hcc.Options{Cores: cores, TrainArgs: w.TrainArgs})
	})
}

// Evaluate compiles the workload at the level and simulates both the
// sequential baseline and the parallel run on arch.
func Evaluate(ctx context.Context, name string, level hcc.Level, arch sim.Config, ref bool) (*Outcome, error) {
	w, comp, err := Compile(name, level, arch.Cores)
	if err != nil {
		return nil, err
	}
	par, err := sim.Run(ctx, w.Prog, comp, w.Entry, applySlow(arch), args(w, ref)...)
	if err != nil {
		return nil, fmt.Errorf("%s parallel: %w", name, err)
	}
	seq, err := Baseline(ctx, name, arch, ref)
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", name, err)
	}
	if seq.RetValue != par.RetValue {
		return nil, fmt.Errorf("%s: parallel result %d != sequential %d",
			name, par.RetValue, seq.RetValue)
	}
	return &Outcome{
		Name: name, Level: level, Comp: comp,
		Seq: seq, Par: par,
		Speedup:  sim.Speedup(seq, par),
		Coverage: comp.Coverage,
	}, nil
}

// Geomean returns the geometric mean of xs (1.0 for empty input).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	prod := 1.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		prod *= x
	}
	return math.Pow(prod, 1/float64(len(xs)))
}
