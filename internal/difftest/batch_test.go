package difftest

import (
	"context"
	"testing"

	"helixrc/internal/cpu"
	"helixrc/internal/hcc"
	"helixrc/internal/sim"
)

// checkBatchEquivalence records one trace for a builder's program and
// asserts sim.ReplayBatch over checkConfig's batch — two budget lanes
// placed before their unlimited class-mate, the recording config, its
// link-latency and signal-bandwidth variants and the cross-config spread
// — is lane-for-lane identical to a fresh sim.Run of the program under
// each lane's config. Budget lanes run under their own MaxSteps, so
// their ErrBudget partials are compared too.
func checkBatchEquivalence(t *testing.T, label string, build Builder) {
	t.Helper()
	prog, fn, args, err := build()
	if err != nil {
		t.Fatalf("%s: build: %v", label, err)
	}
	comp, err := hcc.Compile(prog, fn, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: args})
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	rec := sim.HelixRC(16)
	rec.MaxSteps = 2_000_000
	full, tr, err := sim.Record(context.Background(), prog, comp, fn, rec, args...)
	if err != nil {
		t.Fatalf("%s: record: %v", label, err)
	}
	ooo4 := sim.HelixRC(16)
	ooo4.Core = cpu.OoO4()
	third := rec
	third.MaxSteps = full.Instrs / 3
	half := rec
	half.MaxSteps = full.Instrs / 2
	archs := []sim.Config{third, half, rec}
	for _, nc := range ringVariants(rec) {
		archs = append(archs, nc.cfg)
	}
	archs = append(archs, sim.Conventional(16), sim.Abstract(16), ooo4)
	results, errs := sim.ReplayBatch(context.Background(), tr, archs)
	for i, arch := range archs {
		want, werr := sim.Run(context.Background(), prog, comp, fn, arch, args...)
		if (errs[i] == nil) != (werr == nil) || (errs[i] != nil && errs[i].Error() != werr.Error()) {
			t.Errorf("%s lane %d: error diverges: replay=%v run=%v", label, i, errs[i], werr)
			continue
		}
		if results[i] == nil || want == nil {
			t.Errorf("%s lane %d: missing result: replay=%v run=%v", label, i, results[i], want)
			continue
		}
		if *results[i] != *want {
			t.Errorf("%s lane %d: result diverges:\nreplay: %+v\nrun:    %+v", label, i, results[i], want)
		}
	}
}

// TestBatchReplaySeeds runs the batch-vs-run oracle over the generator
// seed sweep the main difftest uses.
func TestBatchReplaySeeds(t *testing.T) {
	n := uint64(10)
	if testing.Short() {
		n = 3
	}
	for seed := uint64(0); seed < n; seed++ {
		checkBatchEquivalence(t, labelSeed(seed), FromSeed(seed))
	}
}

func labelSeed(seed uint64) string {
	return "seed-" + string(rune('0'+seed%10))
}

// TestBatchReplayCorpus runs the batch-vs-run oracle over the checked-in
// regression corpus.
func TestBatchReplayCorpus(t *testing.T) {
	files, err := CorpusFiles("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no corpus files")
	}
	for _, path := range files {
		text, args, err := LoadCorpusFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		checkBatchEquivalence(t, path, FromText(text, args))
	}
}
