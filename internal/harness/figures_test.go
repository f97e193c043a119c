package harness

import (
	"context"
	"testing"

	"helixrc/internal/sim"
)

func TestFigure7Shape(t *testing.T) {
	f, err := testEnv.Figure7(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	if len(f.Rows) != 10 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	// Headline shape: HELIX-RC beats HCCv2 on every CINT benchmark, and
	// the INT geomeans sit near the paper's 2.2x and 6.85x.
	var intV2, intRC []float64
	for _, r := range f.Rows[:6] {
		if r.Values[1] <= r.Values[0] {
			t.Errorf("%s: HELIX-RC (%.2f) should beat HCCv2 (%.2f)", r.Name, r.Values[1], r.Values[0])
		}
		intV2 = append(intV2, r.Values[0])
		intRC = append(intRC, r.Values[1])
	}
	gV2, gRC := Geomean(intV2), Geomean(intRC)
	if gRC < 4 || gRC > 10 {
		t.Errorf("INT HELIX-RC geomean %.2f outside the paper's neighborhood (6.85)", gRC)
	}
	if gV2 > 3.5 {
		t.Errorf("INT HCCv2 geomean %.2f should stay ~2x", gV2)
	}
	if gRC < 2.5*gV2 {
		t.Errorf("HELIX-RC (%.2f) should be ~3x HCCv2 (%.2f) on INT", gRC, gV2)
	}
	// FP: both compilers high, HELIX-RC at least comparable.
	var fpV2, fpRC []float64
	for _, r := range f.Rows[6:] {
		fpV2 = append(fpV2, r.Values[0])
		fpRC = append(fpRC, r.Values[1])
	}
	if g := Geomean(fpRC); g < 8 {
		t.Errorf("FP HELIX-RC geomean %.2f too low (paper ~12)", g)
	}
	if Geomean(fpRC) < Geomean(fpV2) {
		t.Error("HELIX-RC must not lose to HCCv2 on FP")
	}
}

func TestFigure1Shape(t *testing.T) {
	f, err := testEnv.Figure1(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	// v2 must improve FP dramatically but INT barely.
	var intDelta, fpDelta float64
	for _, r := range f.Rows[:6] {
		intDelta += r.Values[1] - r.Values[0]
	}
	for _, r := range f.Rows[6:] {
		fpDelta += r.Values[1] - r.Values[0]
	}
	if fpDelta < 4*intDelta {
		t.Errorf("HCCv2's gains should concentrate in FP: int=%.2f fp=%.2f", intDelta, fpDelta)
	}
}

func TestFigure2Ladder(t *testing.T) {
	f, err := testEnv.Figure2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	for i := 1; i < len(f.Geomean); i++ {
		if f.Geomean[i]+1e-9 < f.Geomean[i-1] {
			t.Errorf("accuracy must not regress: tier %d %.3f < %.3f", i, f.Geomean[i], f.Geomean[i-1])
		}
	}
	if f.Geomean[len(f.Geomean)-1] < f.Geomean[0]+0.05 {
		t.Errorf("the ladder should improve accuracy: %.3f -> %.3f",
			f.Geomean[0], f.Geomean[len(f.Geomean)-1])
	}
}

func TestFigure3Predictability(t *testing.T) {
	r, err := testEnv.Figure3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	if r.CarriedRegs == 0 {
		t.Fatal("no carried registers found")
	}
	if r.RegCommFraction > 0.35 {
		t.Errorf("recomputation should remove most register communication: %.2f remain", r.RegCommFraction)
	}
	if r.MemShare < 0.5 {
		t.Errorf("remaining communication should be mostly memory: %.2f", r.MemShare)
	}
}

func TestFigure4Stats(t *testing.T) {
	r, err := testEnv.Figure4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	// Short iterations: nearly all complete within 110 cycles (our
	// analogues run 2-3x the paper's <25-cycle iterations; documented in
	// EXPERIMENTS.md).
	if r.IterCyclesCDF[4] < 0.9 {
		t.Errorf("small hot loops should be short: CDF(110)=%.2f", r.IterCyclesCDF[4])
	}
	// Adjacent-core transfers must be a minority.
	if r.HopDist[1] > 0.5 {
		t.Errorf("adjacent-hop share too high: %.2f", r.HopDist[1])
	}
	// Multi-consumer values must be common.
	multi := 0.0
	for k := 2; k < len(r.Consumers); k++ {
		multi += r.Consumers[k]
	}
	// Our analogues' shared tables are read-modify-write far more often
	// than the paper's (see EXPERIMENTS.md), so the multi-consumer share
	// is much smaller than 86% — but it must exist.
	if multi < 0.05 {
		t.Errorf("multi-consumer share %.2f too low", multi)
	}
}

func TestTable1Coverage(t *testing.T) {
	rows, err := testEnv.Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatTable1(rows))
	for _, r := range rows {
		if r.Coverage[2] < 0.9 {
			t.Errorf("%s: HELIX-RC coverage %.2f below 0.9", r.Name, r.Coverage[2])
		}
		if r.Coverage[2] < r.Coverage[1]-1e-9 {
			t.Errorf("%s: HCCv3 coverage must not drop below HCCv2", r.Name)
		}
	}
	// CINT coverage for v1/v2 must be partial (small hot loops rejected)
	// for most benchmarks; one borderline selection is tolerated.
	full := 0
	for _, r := range rows[:6] {
		if r.Coverage[1] > 0.95 {
			full++
		}
	}
	if full > 1 {
		t.Errorf("HCCv2 reached full coverage on %d CINT benchmarks; loop selection is too permissive", full)
	}
}

func TestFigure8Monotonic(t *testing.T) {
	f, err := testEnv.Figure8(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	g := f.Geomean
	if g[4] < g[1] || g[4] < g[2] || g[4] < g[3] {
		t.Errorf("full decoupling should dominate partial variants: %v", g)
	}
	if g[4] < 2*g[0] {
		t.Errorf("full decoupling (%.2f) should far exceed HCCv2 (%.2f)", g[4], g[0])
	}
}

func TestFigure9Shape(t *testing.T) {
	f, err := testEnv.Figure9(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	for _, r := range f.Rows {
		if r.Values[0] < 1.5*r.Values[1] {
			t.Errorf("%s: conventional (%.0f%%) should take far longer than ring (%.0f%%)",
				r.Name, r.Values[0], r.Values[1])
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	f, err := testEnv.Figure10(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f.Format())
	// The OoO cores' sequential runs must be faster (ratio > 1). The
	// paper reports 1.9x; our ILP-limited analogues land lower.
	if f.Geomean[3] < 1.1 {
		t.Errorf("in-order sequential should be slower than 4-way OoO: ratio %.2f", f.Geomean[3])
	}
	// HELIX-RC should still speed up OoO cores on most benchmarks.
	count := 0
	for _, r := range f.Rows {
		if r.Values[2] > 1.5 {
			count++
		}
	}
	if count < 4 {
		t.Errorf("only %d/6 benchmarks speed up on 4-way OoO", count)
	}
}

func TestFigure11Sweeps(t *testing.T) {
	for _, panel := range []string{"cores", "link", "signals", "memory"} {
		f, err := testEnv.Figure11(context.Background(), panel)
		if err != nil {
			t.Fatal(err)
		}
		t.Log("\n" + f.Format())
		switch panel {
		case "cores":
			if f.Geomean[len(f.Geomean)-1] < f.Geomean[0] {
				t.Error("more cores should not be slower")
			}
		case "link":
			if f.Geomean[0] < f.Geomean[len(f.Geomean)-1] {
				t.Error("lower link latency should not be slower")
			}
		case "signals":
			if f.Geomean[0] < f.Geomean[len(f.Geomean)-1]-1e-9 {
				t.Error("unbounded signal bandwidth should not lose to 1 signal/cycle")
			}
		case "memory":
			if f.Geomean[0] < f.Geomean[len(f.Geomean)-1]-1e-9 {
				t.Error("unbounded node memory should not lose to 256B")
			}
		}
	}
}

func TestFigure12Overheads(t *testing.T) {
	rows, err := testEnv.Figure12(context.Background(), 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatFigure12(rows))
	byName := map[string]Figure12Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Low trip count should dominate vpr (its loops have trip ~14).
	lowTripIdx, imbalanceIdx := 4, 3
	vprIdle := byName["175.vpr"].Shares[lowTripIdx] + byName["175.vpr"].Shares[imbalanceIdx]
	if vprIdle < 0.15 {
		t.Errorf("vpr idle-core share %.2f too low", vprIdle)
	}
	// Dependence waiting must weigh on gzip and mcf.
	depIdx := 6
	for _, n := range []string{"164.gzip", "181.mcf"} {
		if byName[n].Shares[depIdx] < 0.1 {
			t.Errorf("%s dependence-waiting share %.2f too low", n, byName[n].Shares[depIdx])
		}
	}
}

func TestTLPStat(t *testing.T) {
	r, err := testEnv.TLP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Format())
	if r.AggressiveTLP < r.ConservativeTLP {
		t.Errorf("aggressive splitting should raise TLP: %.1f vs %.1f",
			r.AggressiveTLP, r.ConservativeTLP)
	}
	if r.AggressiveSeg > r.ConservativeSeg {
		t.Errorf("aggressive splitting should shrink segments: %.1f vs %.1f",
			r.AggressiveSeg, r.ConservativeSeg)
	}
}

func TestDecoupledVariantsFunctional(t *testing.T) {
	// Every decoupling variant must produce the same result.
	w, comp, err := testEnv.CachedCompile(context.Background(), "164.gzip", 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	var ret []int64
	for _, arch := range []sim.Config{
		sim.HelixRC(16), sim.Conventional(16), sim.Abstract(16),
	} {
		res, err := sim.Run(context.Background(), w.Prog, comp, w.Entry, arch, w.RefArgs...)
		if err != nil {
			t.Fatal(err)
		}
		ret = append(ret, res.RetValue)
	}
	if ret[0] != ret[1] || ret[1] != ret[2] {
		t.Errorf("variants diverge: %v", ret)
	}
}
