package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"helixrc/internal/hcc"
	"helixrc/internal/workloads"
)

// checkRecordReplay records c and asserts three-way Result equality:
// reference stepper == recorded run == replayed trace.
func checkRecordReplay(t *testing.T, c simCase) {
	t.Helper()
	ref, err := Reference(context.Background(), c.prog, c.comp, c.entry, c.arch, c.args...)
	if err != nil {
		t.Fatalf("%s: reference: %v", c.name, err)
	}
	recorded, tr, err := Record(context.Background(), c.prog, c.comp, c.entry, c.arch, c.args...)
	if err != nil {
		t.Fatalf("%s: record: %v", c.name, err)
	}
	if *recorded != *ref {
		t.Errorf("%s: recording run diverges from reference:\nrec: %+v\nref: %+v", c.name, recorded, ref)
	}
	replayed, err := Replay(context.Background(), tr, c.arch)
	if err != nil {
		t.Fatalf("%s: replay: %v", c.name, err)
	}
	if *replayed != *recorded {
		t.Errorf("%s: replay diverges from recording:\nreplay: %+v\nrec:    %+v", c.name, replayed, recorded)
	}
}

func TestReplayMatchesRunGolden(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) { checkRecordReplay(t, tc) })
	}
}

// TestReplayCrossConfig is the point of the whole exercise: one trace,
// recorded once, replayed under different timing configs, each replay
// bit-identical to a fresh reference-stepper run under that config.
func TestReplayCrossConfig(t *testing.T) {
	pm, fm := buildMixed(t, 600)
	comp := compileFor(t, pm, fm, hcc.V3, 600)
	_, tr, err := Record(context.Background(), pm, comp, fm, HelixRC(16), 600)
	if err != nil {
		t.Fatal(err)
	}

	link8 := HelixRC(16)
	link8.Ring.LinkLatency = 8
	sig1 := HelixRC(16)
	sig1.Ring.SignalBandwidth = 1
	noMemDec := HelixRC(16)
	noMemDec.DecoupleMem = false
	smallRing := HelixRC(16)
	smallRing.Ring.ArrayBytes = 256

	for _, tc := range []struct {
		name string
		arch Config
	}{
		{"conventional", Conventional(16)},
		{"abstract", Abstract(16)},
		{"link8", link8},
		{"sig1", sig1},
		{"nomemdec", noMemDec},
		{"smallring", smallRing},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := Reference(context.Background(), pm, comp, fm, tc.arch, 600)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Replay(context.Background(), tr, tc.arch)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Errorf("replay under %s diverges from fresh run:\nreplay: %+v\nfresh:  %+v", tc.name, got, want)
			}
		})
	}
}

// TestTraceConfigInvariance pins the equivalence argument's premise: the
// recorded trace depends on Cores and nothing else in Config.
func TestTraceConfigInvariance(t *testing.T) {
	pm, fm := buildMixed(t, 400)
	comp := compileFor(t, pm, fm, hcc.V3, 400)

	configs := []Config{HelixRC(16), Conventional(16), Abstract(16)}
	link := HelixRC(16)
	link.Ring.LinkLatency = 32
	configs = append(configs, link)

	var ref *Trace
	for i, arch := range configs {
		_, tr, err := Record(context.Background(), pm, comp, fm, arch, 400)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if i == 0 {
			ref = tr
			continue
		}
		if !reflect.DeepEqual(ref, tr) {
			t.Errorf("trace under config %d differs from config 0", i)
		}
	}
}

// TestReplayAllWorkloads chains replay equivalence through the fast
// stepper on every workload analogue (TestRunMatchesReferenceAllWorkloads
// closes the loop to the reference stepper without re-running it here).
func TestReplayAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("all-workload replay sweep")
	}
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
			recorded, tr, err := Record(context.Background(), w.Prog, comp, w.Entry, HelixRC(16), w.RefArgs...)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := Replay(context.Background(), tr, HelixRC(16))
			if err != nil {
				t.Fatal(err)
			}
			if *replayed != *recorded {
				t.Errorf("replay diverges from recording:\nreplay: %+v\nrec:    %+v", replayed, recorded)
			}
			conv, err := Run(context.Background(), w.Prog, comp, w.Entry, Conventional(16), w.RefArgs...)
			if err != nil {
				t.Fatal(err)
			}
			convReplay, err := Replay(context.Background(), tr, Conventional(16))
			if err != nil {
				t.Fatal(err)
			}
			if *convReplay != *conv {
				t.Errorf("conventional replay diverges from fresh run:\nreplay: %+v\nfresh:  %+v", convReplay, conv)
			}
		})
	}
}

func TestReplayCoresMismatch(t *testing.T) {
	pm, fm := buildMixed(t, 200)
	comp := compileFor(t, pm, fm, hcc.V3, 200)
	_, tr, err := Record(context.Background(), pm, comp, fm, HelixRC(16), 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(context.Background(), tr, HelixRC(8)); err == nil {
		t.Error("replaying a 16-core trace with 8 cores should fail")
	}
	// Baseline traces have no loops and replay at any core count.
	_, btr, err := Record(context.Background(), pm, nil, fm, Conventional(16), 200)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), pm, nil, fm, Conventional(4), 200)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(context.Background(), btr, Conventional(4))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("baseline cross-core replay diverges:\nreplay: %+v\nfresh:  %+v", got, want)
	}
}

// TestReplayBudget: a replay under a smaller step budget fails at the
// same point, with the same partial Result, as a fresh run would.
func TestReplayBudget(t *testing.T) {
	pm, fm := buildMixed(t, 600)
	comp := compileFor(t, pm, fm, hcc.V3, 600)
	full, tr, err := Record(context.Background(), pm, comp, fm, HelixRC(16), 600)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{full.Instrs / 2, full.Instrs / 7, 100} {
		arch := HelixRC(16)
		arch.MaxSteps = budget
		want, werr := Run(context.Background(), pm, comp, fm, arch, 600)
		got, gerr := Replay(context.Background(), tr, arch)
		if !errors.Is(werr, ErrBudget) || !errors.Is(gerr, ErrBudget) {
			t.Fatalf("budget %d: want ErrBudget from both, got run=%v replay=%v", budget, werr, gerr)
		}
		if *got != *want {
			t.Errorf("budget %d: partial results diverge:\nreplay: %+v\nfresh:  %+v", budget, got, want)
		}
	}
}
