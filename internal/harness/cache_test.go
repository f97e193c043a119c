package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"helixrc/internal/benchreport"
	"helixrc/internal/hcc"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// newDiskEnv returns a cold Env over a fresh disk tier, and the tier's
// directory. A second New over the same directory is the next process:
// memory cold, disk warm.
func newDiskEnv(t *testing.T) (*Env, string) {
	t.Helper()
	dir := t.TempDir()
	return New(Options{CacheDir: dir}), dir
}

// TestWarmDiskCacheZeroRecordings pins the tentpole's acceptance
// criterion at the harness level: after a cold run populated the disk
// tier, a warm run (fresh memory tier, same directory — simulating a new
// process) performs ZERO trace recordings and ZERO replays; every
// simulation is served by loading a persisted Result (replayed Results
// persist per (trace key, config fingerprint), so a warm run does not
// even pay the trace traversal), and the results are identical.
func TestWarmDiskCacheZeroRecordings(t *testing.T) {
	cold, dir := newDiskEnv(t)
	ctx := context.Background()
	const bench = "164.gzip"
	arch := sim.HelixRC(4)

	seq1, err := cold.CachedBaseline(ctx, bench, sim.Conventional(4), true)
	if err != nil {
		t.Fatal(err)
	}
	par1, _, err := cold.CachedRun(ctx, bench, hcc.V3, arch, true)
	if err != nil {
		t.Fatal(err)
	}
	st1 := cold.Stats()
	if st1.Recordings == 0 {
		t.Fatal("cold run recorded no traces; test is vacuous")
	}
	if st1.Cache.DiskWrites == 0 {
		t.Fatalf("cold run wrote nothing to disk: %+v", st1)
	}

	// Warm run: a fresh memory tier over the same disk tier.
	warm := New(Options{CacheDir: dir})
	seq2, err := warm.CachedBaseline(ctx, bench, sim.Conventional(4), true)
	if err != nil {
		t.Fatal(err)
	}
	par2, _, err := warm.CachedRun(ctx, bench, hcc.V3, arch, true)
	if err != nil {
		t.Fatal(err)
	}
	st2 := warm.Stats()
	if st2.Recordings != 0 {
		t.Errorf("warm run recorded %d traces, want 0", st2.Recordings)
	}
	if st2.Replays != 0 {
		t.Errorf("warm run replayed %d traces, want 0 (Results persist)", st2.Replays)
	}
	if st2.Cache.DiskHits == 0 {
		t.Errorf("warm run had no disk hits: %+v", st2)
	}
	if *seq2 != *seq1 {
		t.Errorf("warm baseline differs:\ncold %+v\nwarm %+v", seq1, seq2)
	}
	if *par2 != *par1 {
		t.Errorf("warm parallel result differs:\ncold %+v\nwarm %+v", par1, par2)
	}
}

// TestEnvsAreIndependent renders fig9 on two Envs of one process at
// once: one over a cache dir a third Env filled, the other over an
// empty dir. Neither sees the other's memory tier or counters: the warm
// Env records nothing and compiles nothing, the cold one does exactly
// the filling Env's work, the filling Env's counters stay put, and both
// outputs hash-match the checked-in report.
func TestEnvsAreIndependent(t *testing.T) {
	want, err := benchreport.ExpectedHashes("../../BENCH_2026-08-05.json")
	if err != nil {
		t.Fatal(err)
	}
	render := func(e *Env) (string, error) {
		x, _ := e.FindExperiment("fig9", 16)
		return x.Run(context.Background())
	}
	fill, dir := newDiskEnv(t)
	if _, err := render(fill); err != nil {
		t.Fatal(err)
	}
	filled := fill.Stats()

	warm, cold := New(Options{CacheDir: dir}), New(Options{CacheDir: t.TempDir()})
	envs := []*Env{warm, cold}
	outs, errs := make([]string, len(envs)), make([]error, len(envs))
	var wg sync.WaitGroup
	for i, e := range envs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = render(e)
		}()
	}
	wg.Wait()
	for i, name := range []string{"warm", "cold"} {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(outs[i]))); got != want["fig9"] {
			t.Errorf("%s fig9 hash %s, want %s", name, got, want["fig9"])
		}
	}
	if st := warm.Stats(); st.Recordings != 0 || st.Compiles != 0 || st.Cache.DiskHits == 0 {
		t.Errorf("warm Env recorded %d traces, compiled %d times and read %d disk entries; want 0, 0 and some",
			st.Recordings, st.Compiles, st.Cache.DiskHits)
	}
	if st := cold.Stats(); st.Recordings == 0 || st.Recordings != filled.Recordings || st.Replays != filled.Replays ||
		st.Compiles != filled.Compiles || st.Profiles != filled.Profiles {
		t.Errorf("cold Env recorded %d, replayed %d, compiled %d and trained %d; the filling Env's cold fig9 did %d, %d, %d and %d",
			st.Recordings, st.Replays, st.Compiles, st.Profiles, filled.Recordings, filled.Replays, filled.Compiles, filled.Profiles)
	}
	if fill.Stats() != filled {
		t.Errorf("the filling Env's counters moved while other Envs rendered: %+v, then %+v", filled, fill.Stats())
	}
}

// TestCorruptDiskEntryDegrades corrupts every persisted entry in place
// (bit flips, no truncation — same length, different bytes) and pins the
// corruption policy end to end: the warm run silently recomputes,
// returns identical results, and records fresh traces instead of
// erroring.
func TestCorruptDiskEntryDegrades(t *testing.T) {
	cold, dir := newDiskEnv(t)
	ctx := context.Background()
	const bench = "181.mcf"
	arch := sim.HelixRC(4)

	par1, _, err := cold.CachedRun(ctx, bench, hcc.V3, arch, true)
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

	warm := New(Options{CacheDir: dir})
	par2, _, err := warm.CachedRun(ctx, bench, hcc.V3, arch, true)
	if err != nil {
		t.Fatalf("corrupt cache must degrade to recomputation, got error: %v", err)
	}
	if *par2 != *par1 {
		t.Errorf("recomputed result differs:\nwant %+v\ngot  %+v", par1, par2)
	}
	st := warm.Stats()
	if st.Recordings == 0 {
		t.Error("corrupt entries were served instead of re-recorded")
	}
	if st.Cache.DiskMisses == 0 {
		t.Errorf("corrupt entries did not count as disk misses: %+v", st)
	}
}

// TestClearDiskCache pins -cacheclear's backing call: after Clear, a
// fresh run finds no disk entries, a baseline's or an analysis cell's,
// and re-records.
func TestClearDiskCache(t *testing.T) {
	e, dir := newDiskEnv(t)
	ctx := context.Background()
	if _, err := e.CachedBaseline(ctx, "181.mcf", sim.Conventional(2), true); err != nil {
		t.Fatal(err)
	}
	if _, err := e.coverageCell(ctx, "181.mcf", hcc.V1); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"baseline", "cell"} {
		if entries, _ := filepath.Glob(filepath.Join(dir, kind, "*.art")); len(entries) == 0 {
			t.Fatalf("no %s entries to clear", kind)
		}
	}
	if err := e.ClearDiskCache(); err != nil {
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
	coldEnv, dir := newDiskEnv(t)
	ctx := context.Background()
	render := func(e *Env) string {
		fig, err := e.Figure11(ctx, "cores")
		if err != nil {
			t.Fatal(err)
		}
		tlp, err := e.TLP(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return fig.Format() + tlp.Format()
	}
	analyses := func(e *Env) string {
		rows, err := e.Table1(ctx)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := e.Figure2(ctx)
		if err != nil {
			t.Fatal(err)
		}
		f3, err := e.Figure3(ctx)
		if err != nil {
			t.Fatal(err)
		}
		f4, err := e.Figure4(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return FormatTable1(rows) + f2.Format() + f3.Format() + f4.Format()
	}

	cold, coldAnalyses := render(coldEnv), analyses(coldEnv)
	if st := coldEnv.Stats(); st.Compiles == 0 || st.Profiles == 0 {
		t.Fatal("cold pass compiled or profiled nothing; test is vacuous")
	}

	warm := New(Options{CacheDir: dir})
	for _, pass := range []struct {
		name string
		run  func(*Env) string
		want string
	}{{"warm pass", render, cold}, {"warm analyses", analyses, coldAnalyses}} {
		st1 := warm.Stats()
		got := pass.run(warm)
		st2 := warm.Stats()
		if n := st2.Recordings - st1.Recordings; n != 0 {
			t.Errorf("%s recorded %d traces, want 0", pass.name, n)
		}
		if n := st2.Replays - st1.Replays; n != 0 {
			t.Errorf("%s replayed %d traces, want 0", pass.name, n)
		}
		if n := st2.Compiles - st1.Compiles; n != 0 {
			t.Errorf("%s compiled %d times, want 0", pass.name, n)
		}
		if n := st2.Profiles - st1.Profiles; n != 0 {
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
	for _, e := range testEnv.Experiments(16) {
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
	cold, dir := newDiskEnv(t)
	ctx := context.Background()
	if _, err := cold.TLP(ctx); err != nil {
		t.Fatal(err)
	}
	warm := New(Options{CacheDir: dir})
	cells := 0
	for _, name := range workloads.IntNames() {
		for _, level := range []hcc.Level{hcc.V2, hcc.V3} {
			served, err := warm.tlpRun(ctx, name, level)
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
	// hcc.Compile above bypasses the Env's counter; only tlpRun counts.
	if n := warm.Stats().Compiles; n != 0 {
		t.Errorf("warm TLP cells compiled %d times, want 0", n)
	}
}
