package sim

import (
	"context"
	"testing"

	"helixrc/internal/cpu"
	"helixrc/internal/hcc"
	"helixrc/internal/ir"
	"helixrc/internal/workloads"
)

// simCase is one simulation: a program compiled by HCC (comp is nil for
// the sequential baseline), the platform and the input.
type simCase struct {
	name  string
	prog  *ir.Program
	comp  *hcc.Compiled
	entry *ir.Function
	arch  Config
	args  []int64
}

// goldenCases are synthetic kernels across every machine flavor.
func goldenCases(t *testing.T) []simCase {
	pm, fm := buildMixed(t, 600)
	compM := compileFor(t, pm, fm, hcc.V3, 600)
	pc, fc := buildChase(t, 500)
	compC, err := hcc.Compile(pc, fc, hcc.Options{Level: hcc.V3, Cores: 16, MinSpeedup: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	return []simCase{
		{"mixed/helixrc", pm, compM, fm, HelixRC(16), []int64{600}},
		{"mixed/conventional", pm, compM, fm, Conventional(16), []int64{600}},
		{"mixed/abstract", pm, compM, fm, Abstract(16), []int64{600}},
		{"mixed/baseline", pm, nil, fm, Conventional(16), []int64{600}},
		{"chase/helixrc", pc, compC, fc, HelixRC(16), nil},
	}
}

// runBoth runs c on the fast stepper (Run) and the retained reference
// stepper (Reference) and asserts bit-identical Results — every cycle
// count, overhead category, ring statistic and memory statistic.
func runBoth(t *testing.T, c simCase) {
	t.Helper()
	fast, err := Run(context.Background(), c.prog, c.comp, c.entry, c.arch, c.args...)
	if err != nil {
		t.Fatalf("%s: fast: %v", c.name, err)
	}
	ref, err := Reference(context.Background(), c.prog, c.comp, c.entry, c.arch, c.args...)
	if err != nil {
		t.Fatalf("%s: reference: %v", c.name, err)
	}
	if *fast != *ref {
		t.Errorf("%s: fast and reference steppers diverge:\nfast: %+v\nref:  %+v", c.name, fast, ref)
	}
	if fast.Cycles != ref.Cycles {
		t.Errorf("%s: Cycles %d != %d", c.name, fast.Cycles, ref.Cycles)
	}
}

func TestFastMatchesSlowGolden(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) { runBoth(t, tc) })
	}
}

// TestFastMatchesSlowWorkload pins the equality on a real benchmark
// analogue end to end (compile once, simulate both ways).
func TestFastMatchesSlowWorkload(t *testing.T) {
	w, err := workloads.Get("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: w.TrainArgs})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []simCase{
		{"helixrc", w.Prog, comp, w.Entry, HelixRC(16), w.RefArgs},
		{"conventional", w.Prog, comp, w.Entry, Conventional(16), w.RefArgs},
	} {
		t.Run(tc.name, func(t *testing.T) { runBoth(t, tc) })
	}
}

// TestRunMatchesReferenceAllWorkloads extends the equality to every
// SPEC analogue, compiled at V1 and V3 for 16 cores, on every machine
// flavor the figures simulate plus an out-of-order core. The harness
// serves every figure from the fast stepper, so this is what ties the
// figures to the reference stepper.
func TestRunMatchesReferenceAllWorkloads(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("all-workload reference sweep; scripts/check.sh runs it without -race")
	}
	ooo := HelixRC(16)
	ooo.Core = cpu.OoO4()
	archs := []struct {
		name string
		arch Config
	}{
		{"helixrc", HelixRC(16)},
		{"conventional", Conventional(16)},
		{"abstract", Abstract(16)},
		{"ooo4", ooo},
	}
	for _, name := range workloads.Names() {
		for _, level := range []hcc.Level{hcc.V1, hcc.V3} {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: level, Cores: 16, TrainArgs: w.TrainArgs})
			if err != nil {
				t.Fatalf("%s %v: %v", name, level, err)
			}
			for _, a := range archs {
				tc := simCase{name + "/" + level.String() + "/" + a.name, w.Prog, comp, w.Entry, a.arch, w.RefArgs}
				t.Run(tc.name, func(t *testing.T) { runBoth(t, tc) })
			}
		}
	}
}

// BenchmarkSimHotLoop measures the simulator hot loop on a small INT
// workload at 16 cores — the fast path with pre-decoded metadata.
func BenchmarkSimHotLoop(b *testing.B) {
	benchmarkHotLoop(b, Run)
}

// BenchmarkSimHotLoopSlow is the same workload on the retained
// reference stepper, for before/after comparison.
func BenchmarkSimHotLoopSlow(b *testing.B) {
	benchmarkHotLoop(b, Reference)
}

func benchmarkHotLoop(b *testing.B, simulate func(context.Context, *ir.Program, *hcc.Compiled, *ir.Function, Config, ...int64) (*Result, error)) {
	w, err := workloads.Get("181.mcf")
	if err != nil {
		b.Fatal(err)
	}
	comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: w.TrainArgs})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := simulate(context.Background(), w.Prog, comp, w.Entry, HelixRC(16), w.RefArgs...)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cycles == 0 {
			b.Fatal("zero cycles")
		}
	}
}
