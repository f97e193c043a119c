package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"helixrc/internal/cpu"
	"helixrc/internal/hcc"
	"helixrc/internal/ir"
	"helixrc/internal/workloads"
)

// runFunc is a trace's independent reference: a fresh Run of the
// recorded program and input under one lane's config.
type runFunc func(ctx context.Context, arch Config) (*Result, error)

func runnerFor(prog *ir.Program, comp *hcc.Compiled, entry *ir.Function, args ...int64) runFunc {
	return func(ctx context.Context, arch Config) (*Result, error) {
		return Run(ctx, prog, comp, entry, arch, args...)
	}
}

// laneRejection returns the error text the engine must reject archs[i]
// with, or "" for a lane it serves. Run cannot be the reference for
// these lanes: it executes rather than replays, so it accepts any core
// count.
func laneRejection(tr *Trace, archs []Config, i int) string {
	batchCores := 0
	for j, a := range archs[:i+1] {
		if a.Cores <= 0 {
			a.Cores = 16
		}
		reject := ""
		switch {
		case len(tr.loops) > 0 && a.Cores != tr.cores:
			reject = fmt.Sprintf("sim: trace recorded with %d cores cannot replay with %d", tr.cores, a.Cores)
		case batchCores != 0 && a.Cores != batchCores:
			reject = fmt.Sprintf("sim: trace recorded with %d cores cannot replay with %d", batchCores, a.Cores)
		case batchCores == 0:
			batchCores = a.Cores
		}
		if j == i {
			return reject
		}
	}
	return ""
}

// assertLane compares one replayed lane with its reference: the same
// error (by text) and a bit-identical Result, partial ones included.
func assertLane(t *testing.T, lane string, got *Result, gerr error, want *Result, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Errorf("%s: error diverges: replay=%v run=%v", lane, gerr, werr)
		return
	}
	if got == nil || want == nil {
		t.Errorf("%s: missing result: replay=%v run=%v", lane, got, want)
		return
	}
	if *got != *want {
		t.Errorf("%s: result diverges:\nreplay: %+v\nrun:    %+v", lane, got, want)
	}
}

// assertBatchMatchesRun is the golden equivalence oracle: ReplayBatch
// over archs must return, lane for lane, what a fresh Run of the
// recorded program returns under that lane's config, and reject the
// lanes a replay cannot serve with the expected error text.
func assertBatchMatchesRun(t *testing.T, tr *Trace, run runFunc, archs []Config) {
	t.Helper()
	results, errs := ReplayBatch(context.Background(), tr, archs)
	if len(results) != len(archs) || len(errs) != len(archs) {
		t.Fatalf("batch returned %d results / %d errs for %d archs", len(results), len(errs), len(archs))
	}
	for i, arch := range archs {
		lane := fmt.Sprintf("lane %d", i)
		if want := laneRejection(tr, archs, i); want != "" {
			if results[i] != nil || errs[i] == nil || errs[i].Error() != want {
				t.Errorf("%s: got (%v, %v), want rejection %q", lane, results[i], errs[i], want)
			}
			continue
		}
		want, werr := run(context.Background(), arch)
		assertLane(t, lane, results[i], errs[i], want, werr)
	}
}

// batchCrossConfigs is a config spread exercising every timing path:
// decoupling on/off, perfect memory, ring parameter sweeps, core
// models, and a duplicate lane. Its ring variants put several lanes in
// one array group (link latency and signal bandwidth leave the arrays
// alone) and split others off by array size and associativity.
func batchCrossConfigs() []Config {
	link8 := HelixRC(16)
	link8.Ring.LinkLatency = 8
	sig1 := HelixRC(16)
	sig1.Ring.SignalBandwidth = 1
	link4sig2 := HelixRC(16)
	link4sig2.Ring.LinkLatency, link4sig2.Ring.SignalBandwidth = 4, 2
	noMemDec := HelixRC(16)
	noMemDec.DecoupleMem = false
	smallRing := HelixRC(16)
	smallRing.Ring.ArrayBytes = 256
	smallRingLink8 := smallRing
	smallRingLink8.Ring.LinkLatency = 8
	directRing := smallRing
	directRing.Ring.Assoc = 1
	unboundedRing := HelixRC(16)
	unboundedRing.Ring.ArrayBytes = 0
	ooo4 := HelixRC(16)
	ooo4.Core = cpu.OoO4()
	return []Config{
		HelixRC(16), Conventional(16), Abstract(16),
		link8, sig1, link4sig2, noMemDec, smallRing, smallRingLink8,
		directRing, unboundedRing, ooo4,
		HelixRC(16), // duplicate lane: must match independently
	}
}

func TestReplayBatchMatchesRun(t *testing.T) {
	pm, fm := buildMixed(t, 600)
	comp := compileFor(t, pm, fm, hcc.V3, 600)
	_, tr, err := Record(context.Background(), pm, comp, fm, HelixRC(16), 600)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchMatchesRun(t, tr, runnerFor(pm, comp, fm, 600), batchCrossConfigs())
}

// TestReplayBatchAllWorkloads sweeps the equivalence oracle across
// every workload analogue.
func TestReplayBatchAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("all-workload batch sweep")
	}
	link8 := HelixRC(16)
	link8.Ring.LinkLatency = 8
	archs := []Config{HelixRC(16), Conventional(16), Abstract(16), link8}
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: w.TrainArgs})
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := Record(context.Background(), w.Prog, comp, w.Entry, HelixRC(16), w.RefArgs...)
			if err != nil {
				t.Fatal(err)
			}
			assertBatchMatchesRun(t, tr, runnerFor(w.Prog, comp, w.Entry, w.RefArgs...), archs)
		})
	}
}

// TestReplayBatchBaselineCoreModels is the Figure 10 shape: one
// loop-free baseline trace retimed under the three core models (and a
// different core count, legal on baseline traces).
func TestReplayBatchBaselineCoreModels(t *testing.T) {
	pm, fm := buildMixed(t, 400)
	_, tr, err := Record(context.Background(), pm, nil, fm, Conventional(16), 400)
	if err != nil {
		t.Fatal(err)
	}
	io2 := Conventional(16)
	io2.Core = cpu.InOrder2()
	ooo2 := Conventional(16)
	ooo2.Core = cpu.OoO2()
	ooo4 := Conventional(16)
	ooo4.Core = cpu.OoO4()
	assertBatchMatchesRun(t, tr, runnerFor(pm, nil, fm, 400), []Config{io2, ooo2, ooo4})
}

// longTrace records one multi-million-instruction workload trace — long
// enough to cross several context-poll grid points — shared by the
// budget and cancellation tests, with its Run reference.
var longTrace struct {
	once sync.Once
	res  *Result
	tr   *Trace
	run  runFunc
	err  error
}

func longWorkloadTrace(t *testing.T) (*Result, *Trace, runFunc) {
	t.Helper()
	longTrace.once.Do(func() {
		w, err := workloads.Get("181.mcf")
		if err != nil {
			longTrace.err = err
			return
		}
		comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: w.TrainArgs})
		if err != nil {
			longTrace.err = err
			return
		}
		longTrace.res, longTrace.tr, longTrace.err = Record(context.Background(), w.Prog, comp, w.Entry, HelixRC(16), w.RefArgs...)
		longTrace.run = runnerFor(w.Prog, comp, w.Entry, w.RefArgs...)
	})
	if longTrace.err != nil {
		t.Fatal(longTrace.err)
	}
	if longTrace.res.Instrs <= 2*ctxCheckEvery {
		t.Fatalf("long trace too short for grid coverage: %d instrs", longTrace.res.Instrs)
	}
	return longTrace.res, longTrace.tr, longTrace.run
}

// TestReplayBatchBudgetPartials: lanes whose MaxSteps runs out must
// freeze at the same instruction as Run under that budget — ErrBudget
// plus a bit-identical truncated partial — while unlimited lanes run to
// completion, all in one traversal. Budgets are chosen on and off the
// context-poll grid.
func TestReplayBatchBudgetPartials(t *testing.T) {
	full, tr, run := longWorkloadTrace(t)
	budgets := []int64{0, full.Instrs / 2, full.Instrs / 7, 100, 101,
		ctxCheckEvery} // budget exactly on a poll point
	archs := make([]Config, len(budgets))
	for i, b := range budgets {
		archs[i] = HelixRC(16)
		archs[i].MaxSteps = b
	}
	results, errs := ReplayBatch(context.Background(), tr, archs)
	for i, arch := range archs {
		want, werr := run(context.Background(), arch)
		if budgets[i] > 0 && (!errors.Is(errs[i], ErrBudget) || !errors.Is(werr, ErrBudget)) {
			t.Fatalf("budget %d: want ErrBudget from both, got replay=%v run=%v", budgets[i], errs[i], werr)
		}
		if budgets[i] == 0 && (errs[i] != nil || werr != nil) {
			t.Fatalf("unlimited lane: unexpected errors replay=%v run=%v", errs[i], werr)
		}
		assertLane(t, fmt.Sprintf("budget %d", budgets[i]), results[i], errs[i], want, werr)
		if budgets[i] > 0 && results[i].Instrs != budgets[i] {
			t.Errorf("budget %d: partial ran %d instructions", budgets[i], results[i].Instrs)
		}
	}
}

// TestReplayBatchBudgetOrderings puts the smallest budget first in each
// class (lanes with one core model and memory group) and in each memory
// and array group, so the lane that opens a class or a group freezes
// first while later members keep running. Lanes mix in-order and
// out-of-order cores, decoupling variants and ring variants; every lane
// must still equal Run under its config.
func TestReplayBatchBudgetOrderings(t *testing.T) {
	full, tr, run := longWorkloadTrace(t)
	helix := HelixRC(16)
	ooo4 := helix
	ooo4.Core = cpu.OoO4()
	noMemDec := helix
	noMemDec.DecoupleMem = false
	link8 := helix
	link8.Ring.LinkLatency = 8
	sig1ooo := ooo4
	sig1ooo.Ring.SignalBandwidth = 1
	conv := Conventional(16)
	convOoO := conv
	convOoO.Core = cpu.OoO2()
	budget := func(c Config, steps int64) Config {
		c.MaxSteps = steps
		return c
	}
	half, seventh := full.Instrs/2, full.Instrs/7
	orderings := []struct {
		name  string
		archs []Config
	}{
		// One class, budgets ascending: the first lane freezes first,
		// and the unlimited lane that times the class comes last.
		{"class-ascending", []Config{budget(helix, 100), budget(link8, 101), budget(helix, seventh),
			budget(link8, ctxCheckEvery), budget(helix, half), helix}},
		// Each class and group opens with its smallest budget; the
		// in-order and out-of-order classes share a hierarchy and ring
		// arrays, the conventional ones a hierarchy without a ring.
		{"mixed", []Config{budget(ooo4, 100), budget(helix, 101), budget(convOoO, ctxCheckEvery),
			budget(noMemDec, 100), budget(conv, seventh), budget(sig1ooo, half),
			link8, ooo4, conv, noMemDec, convOoO, budget(helix, seventh)}},
		// Every lane of every class runs out: no lane finishes.
		{"all-frozen", []Config{budget(helix, 100), budget(ooo4, 101), budget(link8, seventh),
			budget(conv, half), budget(sig1ooo, seventh)}},
	}
	wants := map[Config]*Result{}
	werrs := map[Config]error{}
	for _, o := range orderings {
		archs := o.archs
		t.Run(o.name, func(t *testing.T) {
			results, errs := ReplayBatch(context.Background(), tr, archs)
			for i, arch := range archs {
				if _, ok := wants[arch]; !ok {
					wants[arch], werrs[arch] = run(context.Background(), arch)
				}
				assertLane(t, fmt.Sprintf("lane %d (MaxSteps %d)", i, arch.MaxSteps),
					results[i], errs[i], wants[arch], werrs[arch])
				if arch.MaxSteps > 0 && !errors.Is(errs[i], ErrBudget) {
					t.Errorf("lane %d: MaxSteps %d: want ErrBudget, got %v", i, arch.MaxSteps, errs[i])
				}
			}
		})
	}
}

// countdownCtx cancels itself on its nth Err() call. Run and the
// replay engine both poll the context exactly once per
// ctxCheckEvery-aligned step, so a countdown context cancels each at
// the same stream position — which makes mid-trace cancellation
// deterministic enough to compare bit-for-bit.
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	left int
	err  error
}

func newCountdownCtx(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), left: n}
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.left--
		if c.left < 0 {
			c.err = context.Canceled
		}
	}
	return c.err
}

func TestReplayBatchCancellation(t *testing.T) {
	_, tr, run := longWorkloadTrace(t)
	archs := []Config{HelixRC(16), Conventional(16), Abstract(16)}
	// Cancel before the first instruction, then at steps 65536 and 131072.
	for _, n := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("poll%d", n), func(t *testing.T) {
			results, errs := ReplayBatch(newCountdownCtx(n), tr, archs)
			for i, arch := range archs {
				if !errors.Is(errs[i], context.Canceled) {
					t.Fatalf("lane %d: want context.Canceled, got %v", i, errs[i])
				}
				want, werr := run(newCountdownCtx(n), arch)
				assertLane(t, fmt.Sprintf("lane %d", i), results[i], errs[i], want, werr)
			}
		})
	}
}

// TestReplayBatchMixedCores: lanes disagreeing with the batch's core
// count are rejected with Replay's own error text; valid lanes are
// unaffected.
func TestReplayBatchMixedCores(t *testing.T) {
	pm, fm := buildMixed(t, 200)
	comp := compileFor(t, pm, fm, hcc.V3, 200)
	_, tr, err := Record(context.Background(), pm, comp, fm, HelixRC(16), 200)
	if err != nil {
		t.Fatal(err)
	}
	// Against a loop trace the wrong core count disagrees with the trace
	// itself.
	archs := []Config{HelixRC(16), HelixRC(8), Conventional(16)}
	assertBatchMatchesRun(t, tr, runnerFor(pm, comp, fm, 200), archs)
	if got, want := laneRejection(tr, archs, 1), "sim: trace recorded with 16 cores cannot replay with 8"; got != want {
		t.Errorf("lane 1 rejection = %q, want %q", got, want)
	}

	// Baseline traces are core-count independent, so a lone lane may use
	// any count — a mixed batch still cannot share a traversal, and the
	// dissenting lane gets the same error shape.
	_, btr, err := Record(context.Background(), pm, nil, fm, Conventional(16), 200)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := ReplayBatch(context.Background(), btr, []Config{Conventional(4), Conventional(8)})
	want, werr := Run(context.Background(), pm, nil, fm, Conventional(4), 200)
	assertLane(t, "lane 0", results[0], errs[0], want, werr)
	if errs[1] == nil || results[1] != nil {
		t.Fatalf("lane 1: mixed core count not rejected (err=%v)", errs[1])
	}
	if got, wantText := errs[1].Error(), "sim: trace recorded with 4 cores cannot replay with 8"; got != wantText {
		t.Errorf("lane 1 error = %q, want %q", got, wantText)
	}
}

func TestReplayBatchEmpty(t *testing.T) {
	pm, fm := buildMixed(t, 200)
	comp := compileFor(t, pm, fm, hcc.V3, 200)
	_, tr, err := Record(context.Background(), pm, comp, fm, HelixRC(16), 200)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := ReplayBatch(context.Background(), tr, nil)
	if len(results) != 0 || len(errs) != 0 {
		t.Errorf("empty batch returned %d/%d entries", len(results), len(errs))
	}
	// A batch where every lane fails validation must not touch the trace:
	// a loop trace fixes its core count.
	results, errs = ReplayBatch(context.Background(), tr, []Config{HelixRC(8)})
	if results[0] != nil || errs[0] == nil {
		t.Errorf("all-invalid batch: results[0]=%v errs[0]=%v", results[0], errs[0])
	}
}
