package harness

import (
	"context"
	"testing"

	"helixrc/internal/hcc"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// TestCalibration prints the headline numbers for every workload so the
// shapes can be compared against the paper during development, and
// checks that every parallel run returns the sequential result.
func TestCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration table is slow")
	}
	ctx := context.Background()
	rc, conv := sim.HelixRC(16), sim.Conventional(16)
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		seqRC, err := testEnv.CachedBaseline(ctx, name, rc, true)
		if err != nil {
			t.Errorf("%s baseline: %v", name, err)
			continue
		}
		seqConv, err := testEnv.CachedBaseline(ctx, name, conv, true)
		if err != nil {
			t.Errorf("%s baseline conv: %v", name, err)
			continue
		}
		v3, comp3, err := testEnv.CachedRun(ctx, name, hcc.V3, rc, true)
		if err != nil {
			t.Errorf("%s V3: %v", name, err)
			continue
		}
		// HCCv3 code on conventional hardware (Figure 9 C bars).
		v3conv, err := testEnv.runOnTier(ctx, name, hcc.V3, 0, conv, true)
		if err != nil {
			t.Errorf("%s V3conv: %v", name, err)
			continue
		}
		v2, comp2, err := testEnv.CachedRun(ctx, name, hcc.V2, conv, true)
		if err != nil {
			t.Errorf("%s V2: %v", name, err)
			continue
		}
		v1, comp1, err := testEnv.CachedRun(ctx, name, hcc.V1, conv, true)
		if err != nil {
			t.Errorf("%s V1: %v", name, err)
			continue
		}
		for _, par := range []struct {
			what string
			res  *sim.Result
		}{{"V3", v3}, {"V3conv", v3conv}, {"V2", v2}, {"V1", v1}} {
			if par.res.RetValue != seqRC.RetValue {
				t.Errorf("%s %s: parallel result %d != sequential %d", name, par.what, par.res.RetValue, seqRC.RetValue)
			}
		}
		t.Logf("%-11s RC=%5.2f (paper %4.1f) cov3=%.2f (p %.2f) | v2=%4.2f cov2=%.2f (p %.2f) | v1=%4.2f cov1=%.2f | convC=%3.0f%% | loops=%d seq=%dk",
			name, sim.Speedup(seqRC, v3), w.PaperSpeedup, comp3.Coverage, w.PaperCoverage[3],
			sim.Speedup(seqConv, v2), comp2.Coverage, w.PaperCoverage[2],
			sim.Speedup(seqConv, v1), comp1.Coverage,
			100*float64(v3conv.Cycles)/float64(seqRC.Cycles),
			len(comp3.Loops), seqRC.Cycles/1000)
		for _, pl := range comp3.Loops {
			t.Logf("    loop %s cov=%.2f est=%.1f iterlen=%.0f trip=%.0f segs=%d counted=%v",
				pl.Loop, pl.Coverage, pl.EstSpeedup, pl.AvgIterLen, pl.AvgTripCount, pl.NumSegs, pl.Counted)
		}
		for _, rej := range comp3.Rejected {
			if rej.Estimate > 0.3 {
				t.Logf("    rej %s: %s (est %.2f)", rej.Loop, rej.Reason, rej.Estimate)
			}
		}
	}
}
