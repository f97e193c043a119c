package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"helixrc/internal/hcc"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// withCacheDir points the harness stores at a fresh disk tier for one
// test, restoring the memory-only default (and dropping the memory tier
// so state never leaks between tests) on cleanup.
func withCacheDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ResetCaches()
	SetCacheDir(dir)
	t.Cleanup(func() {
		SetCacheDir("")
		ResetCaches()
	})
	return dir
}

// TestWarmDiskCacheZeroRecordings pins the tentpole's acceptance
// criterion at the harness level: after a cold run populated the disk
// tier, a warm run (fresh memory tier, same directory — simulating a new
// process) performs ZERO trace recordings and ZERO replays; every
// simulation is served by loading a persisted Result (replayed Results
// persist per (trace key, config fingerprint), so a warm run does not
// even pay the trace traversal), and the results are identical.
func TestWarmDiskCacheZeroRecordings(t *testing.T) {
	withCacheDir(t)
	ctx := context.Background()
	const bench = "164.gzip"
	arch := sim.HelixRC(4)

	rec0, _ := ReplayStats()
	seq1, err := CachedBaseline(ctx, bench, sim.Conventional(4), true)
	if err != nil {
		t.Fatal(err)
	}
	par1, _, err := CachedRun(ctx, bench, hcc.V3, arch, true)
	if err != nil {
		t.Fatal(err)
	}
	rec1, rep1 := ReplayStats()
	if rec1 == rec0 {
		t.Fatal("cold run recorded no traces; test is vacuous")
	}
	st1 := CacheStats()
	if st1.DiskWrites == 0 {
		t.Fatalf("cold run wrote nothing to disk: %+v", st1)
	}

	// Warm run: drop the memory tier (disk survives ResetCaches).
	ResetCaches()
	seq2, err := CachedBaseline(ctx, bench, sim.Conventional(4), true)
	if err != nil {
		t.Fatal(err)
	}
	par2, _, err := CachedRun(ctx, bench, hcc.V3, arch, true)
	if err != nil {
		t.Fatal(err)
	}
	rec2, rep2 := ReplayStats()
	if rec2 != rec1 {
		t.Errorf("warm run recorded %d traces, want 0", rec2-rec1)
	}
	if rep2 != rep1 {
		t.Errorf("warm run replayed %d traces, want 0 (Results persist)", rep2-rep1)
	}
	st2 := CacheStats()
	if st2.DiskHits == st1.DiskHits {
		t.Errorf("warm run had no disk hits: %+v", st2)
	}
	if *seq2 != *seq1 {
		t.Errorf("warm baseline differs:\ncold %+v\nwarm %+v", seq1, seq2)
	}
	if *par2 != *par1 {
		t.Errorf("warm parallel result differs:\ncold %+v\nwarm %+v", par1, par2)
	}
}

// TestCorruptDiskEntryDegrades corrupts every persisted entry in place
// (bit flips, no truncation — same length, different bytes) and pins the
// corruption policy end to end: the warm run silently recomputes,
// returns identical results, and records fresh traces instead of
// erroring.
func TestCorruptDiskEntryDegrades(t *testing.T) {
	dir := withCacheDir(t)
	ctx := context.Background()
	const bench = "181.mcf"
	arch := sim.HelixRC(4)

	par1, _, err := CachedRun(ctx, bench, hcc.V3, arch, true)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.art"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no disk entries after cold run (err %v)", err)
	}
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ResetCaches()
	rec1, _ := ReplayStats()
	st1 := CacheStats()
	par2, _, err := CachedRun(ctx, bench, hcc.V3, arch, true)
	if err != nil {
		t.Fatalf("corrupt cache must degrade to recomputation, got error: %v", err)
	}
	if *par2 != *par1 {
		t.Errorf("recomputed result differs:\nwant %+v\ngot  %+v", par1, par2)
	}
	rec2, _ := ReplayStats()
	if rec2 == rec1 {
		t.Error("corrupt entries were served instead of re-recorded")
	}
	st2 := CacheStats()
	if st2.DiskMisses == st1.DiskMisses {
		t.Errorf("corrupt entries did not count as disk misses: %+v", st2)
	}
}

// TestClearDiskCache pins -cacheclear's backing call: after Clear, a
// fresh run finds no disk entries, a baseline's or an analysis cell's,
// and re-records.
func TestClearDiskCache(t *testing.T) {
	dir := withCacheDir(t)
	ctx := context.Background()
	if _, err := CachedBaseline(ctx, "181.mcf", sim.Conventional(2), true); err != nil {
		t.Fatal(err)
	}
	if _, err := coverageCell(ctx, "181.mcf", hcc.V1); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"baseline", "cell"} {
		if entries, _ := filepath.Glob(filepath.Join(dir, kind, "*.art")); len(entries) == 0 {
			t.Fatalf("no %s entries to clear", kind)
		}
	}
	if err := ClearDiskCache(); err != nil {
		t.Fatal(err)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*", "*.art")); len(entries) != 0 {
		t.Fatalf("entries survived ClearDiskCache: %v", entries)
	}
}

// TestWarmRunServedWithoutCompiling pins that a warm run executes
// nothing: once a cold pass has persisted every Result and every
// analysis and TLP cell, a warm pass (fresh memory tier, same
// directory) over a recording-bound sweep and the TLP cells, and then
// over the analysis experiments (Table 1, Figures 2-4), records
// nothing, replays nothing, compiles nothing and trains no profile, and
// renders byte-identical output.
func TestWarmRunServedWithoutCompiling(t *testing.T) {
	withCacheDir(t)
	ctx := context.Background()
	render := func() string {
		fig, err := Figure11(ctx, "cores")
		if err != nil {
			t.Fatal(err)
		}
		tlp, err := TLP(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return fig.Format() + tlp.Format()
	}
	analyses := func() string {
		rows, err := Table1(ctx)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := Figure2(ctx)
		if err != nil {
			t.Fatal(err)
		}
		f3, err := Figure3(ctx)
		if err != nil {
			t.Fatal(err)
		}
		f4, err := Figure4(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return FormatTable1(rows) + f2.Format() + f3.Format() + f4.Format()
	}

	comp0, prof0 := CompileStats(), ProfileStats()
	cold, coldAnalyses := render(), analyses()
	if CompileStats() == comp0 || ProfileStats() == prof0 {
		t.Fatal("cold pass compiled or profiled nothing; test is vacuous")
	}

	ResetCaches()
	for _, pass := range []struct {
		name string
		run  func() string
		want string
	}{{"warm pass", render, cold}, {"warm analyses", analyses, coldAnalyses}} {
		rec1, rep1 := ReplayStats()
		comp1, prof1 := CompileStats(), ProfileStats()
		got := pass.run()
		rec2, rep2 := ReplayStats()
		if n := rec2 - rec1; n != 0 {
			t.Errorf("%s recorded %d traces, want 0", pass.name, n)
		}
		if n := rep2 - rep1; n != 0 {
			t.Errorf("%s replayed %d traces, want 0", pass.name, n)
		}
		if n := CompileStats() - comp1; n != 0 {
			t.Errorf("%s compiled %d times, want 0", pass.name, n)
		}
		if n := ProfileStats() - prof1; n != 0 {
			t.Errorf("%s trained %d profiles, want 0", pass.name, n)
		}
		if got != pass.want {
			t.Errorf("%s output differs from cold:\ncold:\n%s\nwarm:\n%s", pass.name, pass.want, got)
		}
	}
}

// TestConfigFingerprintMemo pins sim.Config.Fingerprint, which memoizes
// per config, to the fmt derivation every persisted result key was
// written under, for every preset at 1-16 cores, every run and baseline
// configuration in the registry's cell lists (the fig8, fig10 and fig11
// variants among them), and every lane of the wide explore grid. Exactly
// the 10 trace figures carry a cell list.
func TestConfigFingerprintMemo(t *testing.T) {
	var archs []sim.Config
	for n := 1; n <= 16; n++ {
		archs = append(archs, sim.HelixRC(n), sim.Conventional(n), sim.Abstract(n))
	}
	var traced []string
	for _, e := range Experiments(16) {
		if e.cells == nil {
			continue
		}
		traced = append(traced, e.Name)
		for _, c := range e.cells() {
			archs = append(archs, c.arch, c.base)
		}
	}
	if got, want := strings.Join(traced, " "), "fig1 fig7 fig8 fig9 fig10 fig11a fig11b fig11c fig11d fig12"; got != want {
		t.Fatalf("experiments with a cell list: %s, want %s", got, want)
	}
	for _, cores := range []int{2, 4, 8, 16} {
		for _, link := range []int{1, 2, 4, 8, 16, 32} {
			for _, signals := range []int{0, 1, 2, 5} {
				archs = append(archs, SweepConfig{Cores: cores, Link: link, Signals: signals}.Arch())
			}
		}
	}
	distinct := map[sim.Config]bool{}
	for _, a := range archs {
		sum := sha256.Sum256(fmt.Appendf(nil, "%s %+v", sim.ConfigFingerprintScheme, a))
		want := hex.EncodeToString(sum[:])
		for range 2 { // the second call is always a memo hit
			if got := a.Fingerprint(); got != want {
				t.Fatalf("Fingerprint(%+v) = %s, want %s", a, got, want)
			}
		}
		distinct[a] = true
	}
	if len(distinct) < 100 {
		t.Errorf("only %d distinct configs checked; the enumeration lost its variants", len(distinct))
	}
}

// TestTLPCachedMatchesUncached pins that persisting the TLP cells does
// not change them: each of the 12 cells, served from the disk tier into
// a fresh memory tier without a single compile, equals the reference
// stepper's run of a fresh compile under the abstract machine's
// communication-free loop selection.
func TestTLPCachedMatchesUncached(t *testing.T) {
	withCacheDir(t)
	ctx := context.Background()
	if _, err := TLP(ctx); err != nil {
		t.Fatal(err)
	}
	ResetCaches()
	comp0 := CompileStats()
	cells := 0
	for _, name := range workloads.IntNames() {
		for _, level := range []hcc.Level{hcc.V2, hcc.V3} {
			served, err := tlpRun(ctx, name, level)
			if err != nil {
				t.Fatal(err)
			}
			cells++
			w, err := workloads.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := hcc.Compile(w.Prog, w.Entry, hcc.Options{
				Level: level, Cores: 16, TrainArgs: w.TrainArgs, SelectLatency: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := sim.Reference(ctx, w.Prog, comp, w.Entry, sim.Abstract(16), w.RefArgs...)
			if err != nil {
				t.Fatal(err)
			}
			if *served != *ref {
				t.Errorf("%s/L%d: served TLP cell differs from the reference stepper:\nserved %+v\nref    %+v", name, level, served, ref)
			}
		}
	}
	if cells != 12 {
		t.Errorf("checked %d TLP cells, want 12", cells)
	}
	// hcc.Compile above bypasses the harness counter; only tlpRun counts.
	if n := CompileStats() - comp0; n != 0 {
		t.Errorf("warm TLP cells compiled %d times, want 0", n)
	}
}
