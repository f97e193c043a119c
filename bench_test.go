// Benchmarks that regenerate every table and figure of the paper's
// evaluation (Section 6). Each benchmark runs its experiment end to end —
// compile with the appropriate HCC generation, simulate, aggregate — and
// reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. EXPERIMENTS.md records the
// paper-vs-measured comparison for every row.
package helixrc_test

import (
	"context"
	"testing"

	"helixrc/internal/harness"
)

// benchEnv is the harness Env every benchmark renders on, as one
// helix-bench process does: the first iteration fills its caches and
// later ones read them.
var benchEnv = harness.New(harness.Options{CacheBudget: harness.DefaultCacheBudget})

// BenchmarkFigure1 regenerates Figure 1: HCCv1 vs HCCv2 on conventional
// hardware (paper shape: FP 2.4x -> 11x, INT flat ~2x).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchEnv.Figure1(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Geomean[0], "geomean-v1")
		b.ReportMetric(f.Geomean[1], "geomean-v2")
	}
}

// BenchmarkFigure2 regenerates Figure 2: dependence-analysis accuracy per
// alias tier (paper shape: 48% -> 81%).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchEnv.Figure2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.Geomean[0], "pct-vllpa")
		b.ReportMetric(100*f.Geomean[len(f.Geomean)-1], "pct-libcalls")
	}
}

// BenchmarkFigure3 regenerates Figure 3: predictability removes register
// communication (paper shape: 15% of register communication remains).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchEnv.Figure3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.RegCommFraction, "pct-reg-remaining")
		b.ReportMetric(100*r.MemShare, "pct-mem-share")
	}
}

// BenchmarkFigure4 regenerates Figure 4: iteration lengths, hop distances
// and consumer counts of the small hot loops.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchEnv.Figure4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.IterCyclesCDF[4], "pct-iters-le-110cyc")
		b.ReportMetric(100*r.HopDist[1], "pct-1hop")
	}
}

// BenchmarkTable1 regenerates Table 1: parallelized-loop coverage per
// compiler generation.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchEnv.Table1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var v2, v3 float64
		for _, r := range rows[:6] {
			v2 += r.Coverage[1] / 6
			v3 += r.Coverage[2] / 6
		}
		b.ReportMetric(100*v2, "pct-int-cov-v2")
		b.ReportMetric(100*v3, "pct-int-cov-v3")
	}
}

// BenchmarkFigure7 regenerates the headline Figure 7: HCCv2 vs HELIX-RC
// (paper shape: INT 2.2x -> 6.85x; FP 11.4x -> ~12x).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchEnv.Figure7(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		var intV2, intRC, fpRC []float64
		for _, r := range f.Rows[:6] {
			intV2 = append(intV2, r.Values[0])
			intRC = append(intRC, r.Values[1])
		}
		for _, r := range f.Rows[6:] {
			fpRC = append(fpRC, r.Values[1])
		}
		b.ReportMetric(harness.Geomean(intV2), "x-int-hccv2")
		b.ReportMetric(harness.Geomean(intRC), "x-int-helixrc")
		b.ReportMetric(harness.Geomean(fpRC), "x-fp-helixrc")
	}
}

// BenchmarkFigure8 regenerates Figure 8: the decoupling breakdown.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchEnv.Figure8(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Geomean[0], "x-hccv2")
		b.ReportMetric(f.Geomean[1], "x-dec-reg")
		b.ReportMetric(f.Geomean[2], "x-dec-reg-sync")
		b.ReportMetric(f.Geomean[3], "x-dec-reg-mem")
		b.ReportMetric(f.Geomean[4], "x-helixrc")
	}
}

// BenchmarkFigure9 regenerates Figure 9: HCCv3 code on conventional vs
// ring-cache hardware.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchEnv.Figure9(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		var c, r float64
		for _, row := range f.Rows {
			c += row.Values[0] / float64(len(f.Rows))
			r += row.Values[1] / float64(len(f.Rows))
		}
		b.ReportMetric(c, "pct-time-conventional")
		b.ReportMetric(r, "pct-time-ringcache")
	}
}

// BenchmarkFigure10 regenerates Figure 10: speedups by core type.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := benchEnv.Figure10(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Geomean[0], "x-2way-io")
		b.ReportMetric(f.Geomean[1], "x-2way-ooo")
		b.ReportMetric(f.Geomean[2], "x-4way-ooo")
	}
}

// BenchmarkFigure11 regenerates all four Figure 11 sensitivity panels.
func BenchmarkFigure11(b *testing.B) {
	panels := []struct{ name, which, first, last string }{
		{"CoreCount", "cores", "x-2cores", "x-16cores"},
		{"LinkLatency", "link", "x-1cycle", "x-32cycle"},
		{"SignalBandwidth", "signals", "x-unbounded", "x-1signal"},
		{"NodeMemory", "memory", "x-unbounded", "x-256B"},
	}
	for _, p := range panels {
		p := p
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := benchEnv.Figure11(context.Background(), p.which)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(f.Geomean[0], p.first)
				b.ReportMetric(f.Geomean[len(f.Geomean)-1], p.last)
			}
		})
	}
}

// BenchmarkFigure12 regenerates Figure 12: the overhead taxonomy.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchEnv.Figure12(context.Background(), 16)
		if err != nil {
			b.Fatal(err)
		}
		var sp []float64
		for _, r := range rows {
			sp = append(sp, r.Speedup)
		}
		b.ReportMetric(harness.Geomean(sp), "x-geomean")
	}
}

// BenchmarkTLP regenerates the Section 6.2 TLP statistic (paper shape:
// TLP 6.4 -> 14.2; instructions per segment 8.5 -> 3.2).
func BenchmarkTLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := benchEnv.TLP(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ConservativeTLP, "tlp-conservative")
		b.ReportMetric(r.AggressiveTLP, "tlp-aggressive")
		b.ReportMetric(r.ConservativeSeg, "instr-per-seg-conservative")
		b.ReportMetric(r.AggressiveSeg, "instr-per-seg-aggressive")
	}
}
