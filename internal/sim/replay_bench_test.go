package sim

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"helixrc/internal/cpu"
	"helixrc/internal/hcc"
	"helixrc/internal/workloads"
)

// benchTrace records one (workload, arch) trace for the replay
// microbenchmarks, shared across benchmark functions.
func benchTrace(b *testing.B, name string, arch Config) *Trace {
	b.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: arch.Cores, TrainArgs: w.TrainArgs})
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := Record(context.Background(), w.Prog, comp, w.Entry, arch, w.RefArgs...)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkReplay is the single-config replay hot path: one one-lane
// trace traversal re-timing a 16-core HELIX-RC run.
func BenchmarkReplay(b *testing.B) {
	tr := benchTrace(b, "164.gzip", HelixRC(16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(context.Background(), tr, HelixRC(16)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayBatch retimes the figure-11 ring sweep (five link
// latencies plus the baseline-check configs) in one traversal; compare
// ns/op against 8x BenchmarkReplay for the batching win.
func BenchmarkReplayBatch(b *testing.B) {
	tr := benchTrace(b, "164.gzip", HelixRC(16))
	archs := []Config{HelixRC(16), Conventional(16), Abstract(16)}
	for _, link := range []int{4, 8, 16, 32} {
		a := HelixRC(16)
		a.Ring.LinkLatency = link
		archs = append(archs, a)
	}
	ooo4 := HelixRC(16)
	ooo4.Core = cpu.OoO4()
	archs = append(archs, ooo4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := ReplayBatch(context.Background(), tr, archs)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEncodeTrace / BenchmarkDecodeTrace are the disk-tier codec
// hot paths the warm-cache runs live on.
func BenchmarkEncodeTrace(b *testing.B) {
	tr := benchTrace(b, "164.gzip", HelixRC(16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTrace(b *testing.B) {
	tr := benchTrace(b, "164.gzip", HelixRC(16))
	data, err := EncodeTrace(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTrace(data); err != nil {
			b.Fatal(err)
		}
	}
}

// allocTrace records a small trace once for the allocation guards (the
// guards care about allocs/op, not work per op).
var allocTrace struct {
	once sync.Once
	tr   *Trace
	err  error
}

func allocGuardTrace(t *testing.T) *Trace {
	t.Helper()
	allocTrace.once.Do(func() {
		w, err := workloads.Get("164.gzip")
		if err != nil {
			allocTrace.err = err
			return
		}
		comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: w.TrainArgs})
		if err != nil {
			allocTrace.err = err
			return
		}
		_, allocTrace.tr, allocTrace.err = Record(context.Background(), w.Prog, comp, w.Entry, HelixRC(16), w.RefArgs...)
	})
	if allocTrace.err != nil {
		t.Fatal(allocTrace.err)
	}
	return allocTrace.tr
}

// TestReplayAllocs pins steady-state one-lane replay at (nearly) zero
// allocations: the pooled replayer reuses its scoreboards, rings,
// hierarchy and scratch, so each call should allocate only the returned
// Result. A small slack absorbs sync.Pool's occasional cold Get.
func TestReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	tr := allocGuardTrace(t)
	arch := HelixRC(16)
	ctx := context.Background()
	if _, err := Replay(ctx, tr, arch); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Replay(ctx, tr, arch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Replay allocates %.1f objects/op, budget 2", allocs)
	}
}

// TestReplayBatchAllocs pins steady-state batched replay at its result
// slots: the two slices plus one Result per lane. The pooled replayer
// keeps every lane's scoreboards and rings across calls, and the lanes
// here repeat every core model and ring configuration they use, so
// nothing else may allocate.
func TestReplayBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	tr := allocGuardTrace(t)
	ctx := context.Background()
	ooo4 := HelixRC(16)
	ooo4.Core = cpu.OoO4()
	spread := []Config{HelixRC(16), Conventional(16), Abstract(16), ooo4}
	for _, link := range []int{4, 8, 16, 32} {
		a := HelixRC(16)
		a.Ring.LinkLatency = link
		spread = append(spread, a)
	}
	for _, n := range []int{3, 8} {
		archs := spread[:n]
		batch := func() {
			_, errs := ReplayBatch(ctx, tr, archs)
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		batch() // warm the pools
		budget := float64(2 + n)
		if allocs := testing.AllocsPerRun(10, batch); allocs > budget {
			t.Errorf("ReplayBatch over %d lanes allocates %.1f objects/op, budget %.0f", n, allocs, budget)
		}
	}
}

// TestEncodeTraceAllocs pins EncodeTrace at a single exact-size
// allocation (encodedTraceSize must agree with the writes).
func TestEncodeTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	tr := allocGuardTrace(t)
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != encodedTraceSize(tr) {
		t.Fatalf("encodedTraceSize = %d, actual %d", encodedTraceSize(tr), len(data))
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := EncodeTrace(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("EncodeTrace allocates %.1f objects/op, budget 1", allocs)
	}
}

// TestEncodeResultAllocs pins EncodeResult's buffer sizing: the slice of
// field pointers plus one exact-size output buffer.
func TestEncodeResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	r := &Result{Cycles: 123, Instrs: 456}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := EncodeResult(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("EncodeResult allocates %.1f objects/op, budget 2", allocs)
	}
}

// TestDecodeTraceAllocs pins DecodeTrace at its section slices: one
// Trace, one dec, six section allocations plus per-loop slices — the
// guard catches accidental per-element allocation.
func TestDecodeTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	tr := allocGuardTrace(t)
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	perLoop := 0
	for i := range tr.loops {
		lp := &tr.loops[i]
		perLoop++ // iters
		if len(lp.liveIns) > 0 {
			perLoop++
		}
		if len(lp.lastVals) > 0 {
			perLoop++
		}
	}
	budget := float64(8 + perLoop + len(tr.metas)/100) // slack for metas[i].more
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeTrace(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("DecodeTrace allocates %.1f objects/op, budget %.0f", allocs, budget)
	}
}

// BenchmarkRecord measures trace recording (full execution + trace
// construction), the cost fig11a pays per fresh core count.
func BenchmarkRecord(b *testing.B) {
	w, err := workloads.Get("164.gzip")
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
		if _, _, err := Record(context.Background(), w.Prog, comp, w.Entry, HelixRC(16), w.RefArgs...); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecordRetention keeps 32 (Result, Trace) pairs of one recording
// alive across a GC and bounds the live heap each pair adds. A cached
// Result or Trace must own its data: one that points back into the
// runner or recorder that produced it pins the interpreter's memory
// image and the simulator's scratch state for as long as it is cached.
func TestRecordRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("heap budgets are not meaningful under the race detector")
	}
	w, err := workloads.Get("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: w.TrainArgs})
	if err != nil {
		t.Fatal(err)
	}
	record := func() (*Result, *Trace) {
		res, tr, err := Record(context.Background(), w.Prog, comp, w.Entry, HelixRC(16), w.RefArgs...)
		if err != nil {
			t.Fatal(err)
		}
		return res, tr
	}
	_, tr := record() // warm the simulator pools
	data, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	const keep = 32
	type pair struct {
		res *Result
		tr  *Trace
	}
	// Two collections empty the simulator's sync.Pools (the second drops
	// their victim caches), so pooled scratch state is not counted.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := make([]pair, keep)
	for i := range kept {
		kept[i].res, kept[i].tr = record()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPair := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / keep
	// Measured on 164.gzip: 736 KB per pair against a 629 KB encoded
	// trace. The in-memory trace is larger than its encoding (fixed-width
	// addresses, append-grown slice capacity). A pair that pins its runner
	// adds the runner's memory image and scratch state on top: 17.7 MB
	// per pair when the image was backed from address 0.
	budget := int64(len(data)) + 128<<10
	t.Logf("live heap per kept pair: %d bytes (encoded trace %d bytes, budget %d)", perPair, len(data), budget)
	if perPair > budget {
		t.Errorf("each kept (Result, Trace) pair holds %d live bytes, budget %d", perPair, budget)
	}
	runtime.KeepAlive(kept)
}
