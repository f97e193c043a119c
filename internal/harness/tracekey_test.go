package harness

import (
	"bytes"
	"context"
	"testing"

	"helixrc/internal/alias"
	"helixrc/internal/hcc"
	"helixrc/internal/irgen"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// TestContentTraceKeysSound pins the trace store's content keys
// (traceKey) against what the simulator records. Over the SPEC
// analogues at 4 cores and the checked-in scenarios at 2 and 4 cores,
// every level and alias tier, on train inputs: compiles whose keys are
// equal record byte-identical traces, and a compile that selects no
// loop records its baseline's trace — recorded here at one core count,
// since a loop-free trace replays at any — and the lane it replays from
// that shared trace at its own core count equals sim.Run.
func TestContentTraceKeysSound(t *testing.T) {
	ctx := context.Background()
	const seqCores = 4
	type input struct {
		name  string
		cores int
	}
	var inputs []input
	for _, name := range workloads.Names() {
		inputs = append(inputs, input{name, 4})
	}
	for _, name := range registerPacks(t, irgen.Families()...) {
		inputs = append(inputs, input{name, 2}, input{name, 4})
	}
	encoded := func(w *workloads.Workload, comp *hcc.Compiled, cores int) []byte {
		t.Helper()
		_, tr, err := sim.Record(ctx, w.Prog, comp, w.Entry, sim.HelixRC(cores), w.TrainArgs...)
		if err != nil {
			t.Fatal(err)
		}
		data, err := sim.EncodeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	traces := map[string][]byte{}
	keys := map[string]bool{} // the keys the compiles name
	compiles, loopFree := 0, 0
	for _, in := range inputs {
		b, err := workloadBuild(ctx, in.name)
		if err != nil {
			t.Fatal(err)
		}
		w, fp := b.w, b.fp
		if base := traceKey(fp, false, 0, ""); traces[base] == nil {
			traces[base] = encoded(w, nil, seqCores)
		}
		for _, level := range []hcc.Level{hcc.V1, hcc.V2, hcc.V3} {
			for tier := 0; tier <= len(alias.Tiers); tier++ {
				comp, err := testEnv.compileTier(ctx, b, level, in.cores, tier)
				if err != nil {
					t.Fatal(err)
				}
				compiles++
				compFP := comp.Fingerprint()
				key := traceKey(fp, false, in.cores, compFP)
				keys[key] = true
				cores := in.cores
				if compFP == "" {
					loopFree++
					cores = seqCores
				}
				got := encoded(w, comp, cores)
				want := traces[key]
				if want == nil {
					traces[key] = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s L%d c%d t%d: trace differs from an earlier recording under %s", in.name, level, in.cores, tier, key)
				}
				if compFP != "" {
					continue
				}
				tr, err := sim.DecodeTrace(want)
				if err != nil {
					t.Fatal(err)
				}
				arch := sim.HelixRC(in.cores)
				replayed, err := sim.Replay(ctx, tr, arch)
				if err != nil {
					t.Fatal(err)
				}
				run, err := sim.Run(ctx, w.Prog, comp, w.Entry, arch, w.TrainArgs...)
				if err != nil {
					t.Fatal(err)
				}
				if *replayed != *run {
					t.Errorf("%s L%d c%d t%d: loop-free lane replayed from the shared trace differs from sim.Run:\nwant %+v\ngot  %+v",
						in.name, level, in.cores, tier, run, replayed)
				}
			}
		}
	}
	t.Logf("%d compiles name %d distinct traces; %d are loop-free", compiles, len(keys), loopFree)
}
