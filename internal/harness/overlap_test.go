package harness

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"
	"testing"

	"helixrc/internal/alias"
	"helixrc/internal/benchreport"
	"helixrc/internal/cfg"
	"helixrc/internal/ddg"
	"helixrc/internal/hcc"
	"helixrc/internal/induction"
	"helixrc/internal/ir"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// TestExperimentsOverlap runs every experiment of the evaluation on its
// own goroutine from cold caches, so the figures share compiled
// programs, traces and results while their analyses run concurrently.
// Every output must hash-match the checked-in reference, and under the
// race detector the run must be race-free: the shared programs are only
// read.
func TestExperimentsOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	defer checkGoroutineLeaks(t)()
	want, err := benchreport.ExpectedHashes("../../BENCH_2026-08-07.json")
	if err != nil {
		t.Fatal(err)
	}
	ResetCaches()
	defer ResetCaches()
	exps := Experiments(16)
	outs := make([]string, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = e.Run(context.Background())
		}()
	}
	wg.Wait()
	for i, e := range exps {
		if errs[i] != nil {
			t.Errorf("%s: %v", e.Name, errs[i])
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(outs[i]))); got != want[e.Name] {
			t.Errorf("%s output hash %s, want %s:\n%s", e.Name, got, want[e.Name], outs[i])
		}
	}
}

// programSnapshot is what an analysis could change in a program: its
// canonical content, and the block positions and instruction UIDs that
// side tables are keyed by (the fingerprint names blocks by position
// and omits UIDs, so it sees neither).
type programSnapshot struct {
	fingerprint string
	indexes     []int
	uids        []int32
}

func snapshotProgram(p *ir.Program, entry *ir.Function) programSnapshot {
	s := programSnapshot{fingerprint: p.Fingerprint(entry)}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			s.indexes = append(s.indexes, b.Index)
			for i := range b.Instrs {
				s.uids = append(s.uids, b.Instrs[i].UID)
			}
		}
	}
	return s
}

// TestAnalysesOnlyReadCompiledPrograms runs what the figures run on a
// shared HCCv3 compile of every SPEC analogue — the alias ladder, the
// CFG, loop and liveness analyses, the dependence graph and induction
// classification of every selected loop, and a simulation — and
// requires the program to be unchanged afterwards. The race test above
// sees a write only when two experiments touch the same field at once;
// this one sees, on one goroutine, any write that changes a value.
func TestAnalysesOnlyReadCompiledPrograms(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloads.Names() {
		w, comp, err := CachedCompile(ctx, name, hcc.V3, 16)
		if err != nil {
			t.Fatal(err)
		}
		before := snapshotProgram(w.Prog, w.Entry)

		var an *alias.Analysis // the last tier, TierLib, as Figure 3 uses
		for _, tier := range alias.Tiers {
			an = alias.New(w.Prog, tier)
		}
		for _, f := range w.Prog.Funcs {
			g := cfg.New(f)
			cfg.FindLoops(g)
			cfg.ComputeLiveness(g)
		}
		for _, pl := range comp.Loops {
			g := cfg.New(pl.Fn)
			dg := ddg.Build(w.Prog, pl.Fn, g, pl.Loop, an)
			induction.Classify(pl.Fn, g, pl.Loop, dg.CarriedRegs)
		}
		if _, err := sim.Run(ctx, w.Prog, comp, w.Entry, sim.HelixRC(16), w.RefArgs...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		after := snapshotProgram(w.Prog, w.Entry)
		if after.fingerprint != before.fingerprint {
			t.Errorf("%s: program fingerprint changed", name)
		}
		if !slices.Equal(after.indexes, before.indexes) {
			t.Errorf("%s: block indexes changed", name)
		}
		if !slices.Equal(after.uids, before.uids) {
			t.Errorf("%s: instruction UIDs changed", name)
		}
	}
}
