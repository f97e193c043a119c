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
	"helixrc/internal/workloads"
)

func args(w *workloads.Workload, ref bool) []int64 {
	if ref {
		return w.RefArgs
	}
	return w.TrainArgs
}

// compileTier builds a fresh copy of the workload and compiles it at
// the given level and alias tier (0 = the level's engineered default,
// which is every path except the explore sweeps). A fresh copy is
// required because HCC mutates the program. The training profile comes
// from the profile tier, shared with every other level and tier
// compiled for the same (workload, cores).
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
