// Package harness wires workloads, the HCC compiler and the simulator
// into the experiments of the paper's evaluation (Section 6). Every table
// and figure has a generator here; the root bench_test.go and
// cmd/helix-bench expose them.
package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"helixrc/internal/artifact"
	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/workloads"
)

// build is a workload as the harness shares it: built once per process
// by workloads.Get, which numbers it, and only read afterwards — HCC
// emits a new program that extends it — so its fingerprint, profiles,
// compiles, recordings and TLP cells all read the one build.
type build struct {
	name string // the registry name
	w    *workloads.Workload
	// fp is the content fingerprint the workload's artifacts are keyed
	// under: the canonical program fingerprint (block names normalized
	// positionally) plus the train/ref argument vectors, which compiles
	// and traces depend on but the program text does not contain.
	fp string
}

// builds memoizes one build per workload name. Registry content is
// fixed for the process, so ResetCaches leaves it, and it holds at most
// one entry per name asked for.
var builds artifact.Memo[*build]

// workloadBuild serves the workload's shared build.
func workloadBuild(ctx context.Context, name string) (*build, error) {
	return builds.Do(ctx, name, func(context.Context) (*build, error) {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(fmt.Appendf(nil, "%s train=%v ref=%v",
			w.Prog.Fingerprint(w.Entry), w.TrainArgs, w.RefArgs))
		return &build{name: name, w: w, fp: hex.EncodeToString(sum[:])}, nil
	})
}

// compileTier compiles the workload's build at the given level and
// alias tier (0 = the level's engineered default, which is every path
// except the explore sweeps). The training profile comes from the
// profile tier, shared with every other level and tier compiled for the
// same (workload, cores).
func compileTier(ctx context.Context, b *build, level hcc.Level, cores, tier int) (*hcc.Compiled, error) {
	prof, err := trainedProfile(ctx, b, cores)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.name, err)
	}
	compiles.Add(1)
	comp, err := hcc.CompileWith(b.w.Prog, b.w.Entry, hcc.Options{
		Level: level, Cores: cores, TrainArgs: b.w.TrainArgs, AliasTier: tier,
	}, prof)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.name, err)
	}
	return comp, nil
}

// trainedProfile serves the training profile of the workload on a ring
// of cores cores. A profile depends on the program, its training args,
// the core count and the profile budget, but not on the level or the
// alias tier, so the first compile of an input trains it and every
// later one reads the same immutable Profile from the profile tier.
func trainedProfile(ctx context.Context, b *build, cores int) (*interp.Profile, error) {
	key := fmt.Sprintf("profile/%s/c%d/%s", b.name, cores, b.fp)
	return profStore.Get(ctx, key, func(context.Context) (*interp.Profile, error) {
		profiles.Add(1)
		return hcc.Train(b.w.Prog, b.w.Entry, hcc.Options{Cores: cores, TrainArgs: b.w.TrainArgs})
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
