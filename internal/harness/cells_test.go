package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"helixrc/internal/hcc"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// renderAnalyses renders the experiments served by the cell store —
// Figures 2-4, Table 1 and the TLP statistic — through env's Experiments
// registry, as helix-bench does.
func renderAnalyses(t *testing.T, env *Env) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range []string{"fig2", "fig3", "fig4", "table1", "tlp"} {
		e, ok := env.FindExperiment(name, 16)
		if !ok {
			t.Fatalf("no experiment %s", name)
		}
		out, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sb.WriteString(out)
	}
	return sb.String()
}

// sharingCompiles returns a New(o) whose compile and profile tiers are
// e's, so its cells refill from e's compilations without compiling.
func sharingCompiles(e *Env, o Options) *Env {
	n := New(o)
	n.compStore, n.profStore = e.compStore, e.profStore
	return n
}

// sameCell reports whether two cells hold the same values bit for bit.
func sameCell(t *testing.T, a, b *cell) bool {
	t.Helper()
	ea, err := encodeCell(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := encodeCell(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea, eb)
}

// TestCorruptCellEntriesDegrade extends the corruption policy to the
// analysis and TLP cells: after a cold render persisted them, each kind
// of cell has its entries bit-flipped, truncated, or rewritten as valid
// envelopes under another scheme, in turn, and the next render (fresh
// cell tier) recomputes every cell silently, counts a disk miss for
// each, writes each again, and renders byte-identical figures.
func TestCorruptCellEntriesDegrade(t *testing.T) {
	cold, dir := newDiskEnv(t)
	want := renderAnalyses(t, cold)
	entries, err := filepath.Glob(filepath.Join(dir, "cell", "*.art"))
	if err != nil {
		t.Fatal(err)
	}
	// 6 CINT2000 cells each for Figures 2, 3 and 4, 10 workloads x 3
	// levels for Table 1, and 6 x 2 TLP cells.
	if len(entries) != 60 {
		t.Fatalf("cold render persisted %d cells, want 60", len(entries))
	}
	// The envelope (internal/artifact) opens with the magic "hxart", a
	// u32 version, the u32-length-prefixed scheme and the
	// u32-length-prefixed key.
	const schemeLen = len("hxart") + 4
	corruptions := []func([]byte) []byte{
		func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		func(b []byte) []byte { return b[:len(b)/2] },
		func(b []byte) []byte {
			body := b[:len(b)-sha256.Size]
			body[schemeLen+4] ^= 1 // the scheme's first byte
			sum := sha256.Sum256(body)
			return append(body, sum[:]...)
		},
	}
	seen := map[string]int{}
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := schemeLen + 4 + int(binary.LittleEndian.Uint32(data[schemeLen:]))
		key := string(data[off+4 : off+4+int(binary.LittleEndian.Uint32(data[off:]))])
		kind := strings.Split(key, "/")[1]
		if err := os.WriteFile(path, corruptions[seen[kind]%len(corruptions)](data), 0o644); err != nil {
			t.Fatal(err)
		}
		seen[kind]++
	}
	if len(seen) != 5 {
		t.Fatalf("cell kinds on disk: %v, want accuracy, census, loopstats, coverage and tlp", seen)
	}

	warm := sharingCompiles(cold, Options{CacheDir: dir})
	got := renderAnalyses(t, warm)
	st := warm.cellStore.Stats()
	if n := int64(len(entries)); st.DiskMisses != n || st.DiskWrites != n || st.DiskHits != 0 {
		t.Errorf("disk traffic %+v, want %d misses and %d writes", st, n, n)
	}
	if got != want {
		t.Errorf("render over corrupt cells differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestAnalysisCellsMatchFreshCompiles pins that persisting the analysis
// cells does not change them: after a cold fill, every cell of Figures
// 2-4 and Table 1, served from the disk tier into a fresh memory tier
// without a compile or a profile, equals bit for bit the cell computed
// from hcc.Compile on a fresh workloads.Get build.
// TestTLPCachedMatchesUncached does the same for the TLP cells.
func TestAnalysisCellsMatchFreshCompiles(t *testing.T) {
	cold, dir := newDiskEnv(t)
	ctx := context.Background()
	for _, name := range []string{"fig2", "fig3", "fig4", "table1"} {
		e, _ := cold.FindExperiment(name, 16)
		if _, err := e.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	warm := New(Options{CacheDir: dir})
	integer := map[string]bool{}
	for _, name := range workloads.IntNames() {
		integer[name] = true
	}
	cells := 0
	check := func(what string, served *cell, err error, want *cell) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		cells++
		if !sameCell(t, served, want) {
			t.Errorf("%s: served cell %+v, fresh compile gives %+v", what, served, want)
		}
	}
	for _, name := range workloads.Names() {
		for _, level := range []hcc.Level{hcc.V1, hcc.V2, hcc.V3} {
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: level, Cores: 16, TrainArgs: w.TrainArgs})
			if err != nil {
				t.Fatal(err)
			}
			c, err := warm.coverageCell(ctx, name, level)
			check(name+" coverage", c, err, &cell{ints: []int64{int64(w.Phases)}, floats: []float64{comp.Coverage}})
			if level != hcc.V3 || !integer[name] {
				continue
			}
			c, err = warm.accuracyCell(ctx, name)
			check(name+" accuracy", c, err, &cell{floats: accuracyRow(comp)})
			c, err = warm.censusCell(ctx, name)
			check(name+" census", c, err, &cell{ints: census(comp)})
			c, err = warm.loopStatsCell(ctx, name)
			check(name+" loopstats", c, err, &cell{ints: loopStats(comp)})
		}
	}
	if cells != 48 {
		t.Errorf("checked %d analysis cells, want 48", cells)
	}
	// hcc.Compile above bypasses the Env's counters.
	if st := warm.Stats(); st.Compiles != 0 || st.Profiles != 0 {
		t.Errorf("served cells compiled %d times and trained %d profiles, want 0 and 0", st.Compiles, st.Profiles)
	}
}

// TestFailedCellFillsNotStored pins what the cell store keeps: only a
// fill that succeeds. A fill that fails, one whose caller cancels, and
// one that outlives its cell deadline (the cell degrades to a hole in
// its figure) leave no entry, and the next request computes each again.
func TestFailedCellFillsNotStored(t *testing.T) {
	e, dir := newDiskEnv(t)
	ctx := context.Background()
	serve := func(ctx context.Context, param string, fill func(context.Context, *build) (*cell, error)) (*cell, error) {
		return e.persistedCell(ctx, "test", "181.mcf", hcc.V3, 16, []string{param}, fill)
	}
	waits := func(ctx context.Context, _ *build) (*cell, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}

	failed := errors.New("fill failed")
	if _, err := serve(ctx, "fails", func(context.Context, *build) (*cell, error) { return nil, failed }); !errors.Is(err, failed) {
		t.Fatalf("failing fill: err = %v, want %v", err, failed)
	}
	cctx, cancel := context.WithCancel(ctx)
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := serve(cctx, "cancelled", waits); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fill: err = %v, want context.Canceled", err)
	}
	pctx, partial := WithPartials(ctx)
	out, err := parMapCells(pctx, 1, 20*time.Millisecond, 1, func(int) string { return "deadline" }, func(ctx context.Context, _ int) (*cell, error) {
		return serve(ctx, "deadline", waits)
	})
	if err != nil || out[0] != nil || len(partial.Cells()) != 1 {
		t.Fatalf("deadline fill: cells %v, err %v, degraded %v; want one degraded hole", out, err, partial.Cells())
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "cell", "*.art")); len(entries) != 0 {
		t.Fatalf("failed fills left entries: %v", entries)
	}

	e = New(Options{CacheDir: dir}) // a memory tier remembers the failed fill's error
	for _, param := range []string{"fails", "cancelled", "deadline"} {
		ran := false
		if _, err := serve(ctx, param, func(context.Context, *build) (*cell, error) {
			ran = true
			return &cell{ints: []int64{1}}, nil
		}); err != nil || !ran {
			t.Errorf("%s: err %v, fill ran %v; want a fresh fill", param, err, ran)
		}
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "cell", "*.art")); len(entries) != 3 {
		t.Errorf("succeeding fills left %d entries, want 3", len(entries))
	}
}

// TestDegradedAnalysisFigure pins that an analysis figure renders around
// a cell that missed its deadline: Figure 4's cell for one workload
// waits on an in-flight fill past the deadline, and the figure completes
// with that cell degraded and stores nothing for it. The next render
// computes the cell and matches a complete one.
func TestDegradedAnalysisFigure(t *testing.T) {
	cold, _ := newDiskEnv(t)
	ctx := context.Background()
	full, err := cold.Figure4(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := full.Format()

	// A fresh disk tier and cell tier: the other cells recompute from
	// the compile tier, well within the deadline.
	dir := t.TempDir()
	e := sharingCompiles(cold, Options{CacheDir: dir, CellTimeout: time.Second})
	b, err := workloadBuild(ctx, "181.mcf")
	if err != nil {
		t.Fatal(err)
	}
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		e.cellStore.Get(ctx, cellKey("loopstats", b, hcc.V3, 16, nil), func(context.Context) (*cell, error) {
			close(started)
			<-release
			return nil, errors.New("released")
		})
	}()
	<-started
	pctx, partial := WithPartials(ctx)
	_, err = e.Figure4(pctx)
	close(release)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if cells := partial.Cells(); len(cells) != 1 || cells[0] != "181.mcf/L3/loopstats" {
		t.Fatalf("degraded cells %v, want [181.mcf/L3/loopstats]", cells)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "cell", "*.art")); len(entries) != len(workloads.IntNames())-1 {
		t.Errorf("%d cell entries after one cell degraded, want %d", len(entries), len(workloads.IntNames())-1)
	}

	again, err := sharingCompiles(cold, Options{CacheDir: dir}).Figure4(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Format(); got != want {
		t.Errorf("render after the degraded one differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// heapBytes returns the bytes f allocates on the heap.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeCell feeds decodeCell mutated cell bodies, resealed with a
// fresh checksum so the mutations reach the structural checks. Decoding
// must never panic, must allocate no more than the input's size allows,
// and must re-encode every cell it accepts to exactly the bytes it was
// given. Seeds: one workload's cells of Figures 2-4 and Table 1, a TLP
// cell holding a real run's Result, and floats whose bits must survive.
func FuzzDecodeCell(f *testing.F) {
	w, err := workloads.Get("181.mcf")
	if err != nil {
		f.Fatal(err)
	}
	comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: w.TrainArgs})
	if err != nil {
		f.Fatal(err)
	}
	res, err := sim.Run(context.Background(), w.Prog, comp, w.Entry, sim.Abstract(16), w.TrainArgs...)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []*cell{
		{floats: accuracyRow(comp)},
		{ints: census(comp)},
		{ints: loopStats(comp)},
		{ints: []int64{int64(w.Phases)}, floats: []float64{comp.Coverage}},
		{res: res},
		{floats: []float64{math.Copysign(0, -1), math.NaN(), math.Inf(-1), math.SmallestNonzeroFloat64}},
		{},
	} {
		data, err := encodeCell(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[:len(data)-sha256.Size])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sum := sha256.Sum256(body)
		data := append(body[:len(body):len(body)], sum[:]...)
		var c *cell
		var err error
		if n := heapBytes(func() { c, err = decodeCell(data) }); n > 64<<10+8*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		again, err := encodeCell(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted cell re-encodes differently:\nin  %x\nout %x", data, again)
		}
	})
}
