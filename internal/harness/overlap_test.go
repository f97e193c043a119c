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
	exps := New(Options{}).Experiments(16)
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
// requires the program HCC emitted to be unchanged afterwards. The race
// test above sees a write only when two experiments touch the same
// field at once; this one sees, on one goroutine, any write that
// changes a value.
func TestAnalysesOnlyReadCompiledPrograms(t *testing.T) {
	ctx := context.Background()
	for _, name := range workloads.Names() {
		w, comp, err := testEnv.CachedCompile(ctx, name, hcc.V3, 16)
		if err != nil {
			t.Fatal(err)
		}
		p := comp.Prog
		before := snapshotProgram(p, w.Entry)

		var an *alias.Analysis // the last tier, TierLib, as Figure 3 uses
		for _, tier := range alias.Tiers {
			an = alias.New(p, tier)
		}
		for _, f := range p.Funcs {
			g := cfg.New(f)
			cfg.FindLoops(g)
			cfg.ComputeLiveness(g)
		}
		for _, pl := range comp.Loops {
			g := cfg.New(pl.Fn)
			dg := ddg.Build(p, pl.Fn, g, pl.Loop, an)
			induction.Classify(pl.Fn, g, pl.Loop, dg.CarriedRegs)
		}
		if _, err := sim.Run(ctx, w.Prog, comp, w.Entry, sim.HelixRC(16), w.RefArgs...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		after := snapshotProgram(p, w.Entry)
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

// TestSharedBuildsAreOnlyRead trains, compiles every level and alias
// tier, records and replays concurrently from one build of each SPEC
// analogue, as the harness shares its builds: one goroutine per level
// trains its own profile and then compiles, records and replays each
// tier. Under the race detector a write to the shared build is a
// reported race; without it, the build must still fingerprint, count
// and number as before, and every replay must equal its recording.
func TestSharedBuildsAreOnlyRead(t *testing.T) {
	ctx := context.Background()
	levels := []hcc.Level{hcc.V1, hcc.V2, hcc.V3}
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		before := snapshotProgram(w.Prog, w.Entry)
		funcs, globals := len(w.Prog.Funcs), len(w.Prog.Globals)
		errs := make([]error, len(levels))
		var wg sync.WaitGroup
		for i, level := range levels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = compileRecordReplay(ctx, w, level)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("%s %v: %v", name, levels[i], err)
			}
		}
		after := snapshotProgram(w.Prog, w.Entry)
		if after.fingerprint != before.fingerprint || !slices.Equal(after.uids, before.uids) ||
			len(w.Prog.Funcs) != funcs || len(w.Prog.Globals) != globals {
			t.Errorf("%s: the shared build changed", name)
		}
	}
}

// compileRecordReplay trains w on 4 cores, then compiles it at level
// under every alias tier, and records and replays each distinct
// compile (tiers often emit the same program) on the train input.
func compileRecordReplay(ctx context.Context, w *workloads.Workload, level hcc.Level) error {
	const cores = 4
	prof, err := hcc.Train(w.Prog, w.Entry, hcc.Options{Cores: cores, TrainArgs: w.TrainArgs})
	if err != nil {
		return err
	}
	recorded := map[string]bool{}
	for tier := 0; tier <= len(alias.Tiers); tier++ {
		comp, err := hcc.CompileWith(w.Prog, w.Entry, hcc.Options{
			Level: level, Cores: cores, TrainArgs: w.TrainArgs, AliasTier: tier,
		}, prof)
		if err != nil {
			return err
		}
		fp := comp.Fingerprint()
		if recorded[fp] {
			continue
		}
		recorded[fp] = true
		arch := sim.HelixRC(cores)
		rec, tr, err := sim.Record(ctx, w.Prog, comp, w.Entry, arch, w.TrainArgs...)
		if err != nil {
			return err
		}
		rp, err := sim.Replay(ctx, tr, arch)
		if err != nil {
			return err
		}
		if *rp != *rec {
			return fmt.Errorf("tier %d: replay %+v, recorded %+v", tier, rp, rec)
		}
	}
	return nil
}
