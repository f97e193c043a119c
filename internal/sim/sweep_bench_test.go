package sim_test

import (
	"context"
	"testing"

	"helixrc/internal/hcc"
	"helixrc/internal/irgen"
	"helixrc/internal/scenarios"
	"helixrc/internal/sim"
)

// BenchmarkReplayBatchSweep is the explore grid's replay shape: the 8
// default scenarios, each recorded once at 4 and at 16 cores, and every
// trace retimed in one batch under the wide grid's 24 link × signal
// lanes. One op is all 16 batches. Its lanes share one core model, one
// memory hierarchy and one ring-array shape, which BenchmarkReplayBatch's
// decoupling and core-model spread does not.
func BenchmarkReplayBatchSweep(b *testing.B) {
	type batch struct {
		tr    *sim.Trace
		archs []sim.Config
	}
	var batches []batch
	for _, f := range irgen.Families() {
		pack, err := scenarios.DefaultPack(f)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range pack.Scenarios {
			_, w, err := scenarios.Build(f, m.Seed, m.Knobs)
			if err != nil {
				b.Fatal(err)
			}
			for _, cores := range []int{4, 16} {
				comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: cores, TrainArgs: w.TrainArgs})
				if err != nil {
					b.Fatal(err)
				}
				_, tr, err := sim.Record(context.Background(), w.Prog, comp, w.Entry, sim.HelixRC(cores), w.RefArgs...)
				if err != nil {
					b.Fatal(err)
				}
				var archs []sim.Config
				for _, link := range []int{1, 2, 4, 8, 16, 32} {
					for _, signals := range []int{0, 1, 2, 5} {
						a := sim.HelixRC(cores)
						a.Ring.LinkLatency = link
						a.Ring.SignalBandwidth = signals
						archs = append(archs, a)
					}
				}
				batches = append(batches, batch{tr, archs})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bt := range batches {
			_, errs := sim.ReplayBatch(context.Background(), bt.tr, bt.archs)
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
