package drive

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"helixrc/internal/artifact"
	"helixrc/internal/benchreport"
	"helixrc/internal/harness"
)

func testPlan(names ...string) *Plan {
	p := &Plan{
		What:           "benchmark",
		Units:          "experiment(s)",
		IncompleteWhat: "evaluation",
		ReportPrefix:   "BENCH",
	}
	for _, n := range names {
		n := n
		p.Experiments = append(p.Experiments, Experiment{
			Name:     n,
			ClaimKey: "exp/" + n,
			Run: func(context.Context) (string, error) {
				return "out-" + n, nil
			},
		})
	}
	return p
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		i, n int
		ok   bool
	}{
		{"1/1", 1, 1, true},
		{"2/4", 2, 4, true},
		{"0/4", 0, 0, false},
		{"5/4", 0, 0, false},
		{"1", 0, 0, false},
		{"a/b", 0, 0, false},
		{"", 0, 0, false},
	} {
		i, n, err := parseShard(tc.in)
		if (err == nil) != tc.ok || i != tc.i || n != tc.n {
			t.Errorf("parseShard(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, i, n, err, tc.i, tc.n, tc.ok)
		}
	}
}

// TestRunExperimentsSolo pins the single-process contract: in order,
// every output hashed and reported.
func TestRunExperimentsSolo(t *testing.T) {
	o := &Options{}
	p := testPlan("a", "b", "c")
	reports, mismatches, interrupted, runErr := runExperiments(context.Background(), o, p, nil, nil)
	if runErr != nil || interrupted || mismatches != 0 {
		t.Fatalf("err=%v interrupted=%v mismatches=%d", runErr, interrupted, mismatches)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	for i, name := range []string{"a", "b", "c"} {
		if reports[i].Name != name || reports[i].Output != "out-"+name || reports[i].OutputSHA256 == "" {
			t.Errorf("report[%d] = %+v", i, reports[i])
		}
	}
}

// TestRunExperimentsSoloStopsAtFailure: without claims, the first
// failure stops the run (later experiments never start).
func TestRunExperimentsSoloStopsAtFailure(t *testing.T) {
	o := &Options{}
	p := testPlan("a")
	ran := false
	p.Experiments = append(p.Experiments,
		Experiment{Name: "boom", Run: func(context.Context) (string, error) { return "", errors.New("kaput") }},
		Experiment{Name: "after", Run: func(context.Context) (string, error) { ran = true; return "x", nil }},
	)
	reports, _, interrupted, runErr := runExperiments(context.Background(), o, p, nil, nil)
	if runErr == nil || !strings.Contains(runErr.Error(), "kaput") || interrupted {
		t.Fatalf("runErr=%v interrupted=%v; want kaput, false", runErr, interrupted)
	}
	if len(reports) != 1 || ran {
		t.Fatalf("reports=%d ran=%v; want 1, false", len(reports), ran)
	}
}

// TestRunExperimentsClaimed: two sequential "workers" over one claim
// directory — the first renders everything, the second skips it all.
func TestRunExperimentsClaimed(t *testing.T) {
	dir := t.TempDir()
	o := &Options{}
	p := testPlan("a", "b")

	w1 := artifact.NewClaimer(filepath.Join(dir, "claims"), "w1", time.Minute)
	reports, _, interrupted, runErr := runExperiments(context.Background(), o, p, w1, nil)
	if runErr != nil || interrupted || len(reports) != 2 {
		t.Fatalf("worker 1: err=%v interrupted=%v reports=%d", runErr, interrupted, len(reports))
	}

	w2 := artifact.NewClaimer(filepath.Join(dir, "claims"), "w2", time.Minute)
	reports, _, interrupted, runErr = runExperiments(context.Background(), o, p, w2, nil)
	if runErr != nil || interrupted || len(reports) != 0 {
		t.Fatalf("worker 2: err=%v interrupted=%v reports=%d; want all claims done", runErr, interrupted, len(reports))
	}
}

// TestRunExperimentsClaimedContinuesPastFailure: with claims, one
// failed experiment doesn't stop the others (a sibling worker may need
// them), and the error is joined into the result.
func TestRunExperimentsClaimedContinuesPastFailure(t *testing.T) {
	o := &Options{}
	p := testPlan("a")
	p.Experiments = append(p.Experiments,
		Experiment{Name: "boom", ClaimKey: "exp/boom", Run: func(context.Context) (string, error) { return "", errors.New("kaput") }},
	)
	p.Experiments = append(p.Experiments, testPlan("z").Experiments...)

	c := artifact.NewClaimer(filepath.Join(t.TempDir(), "claims"), "w1", time.Minute)
	reports, _, interrupted, runErr := runExperiments(context.Background(), o, p, c, nil)
	if runErr == nil || !strings.Contains(runErr.Error(), "kaput") || interrupted {
		t.Fatalf("runErr=%v interrupted=%v; want kaput, false", runErr, interrupted)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2 (a and z despite boom)", len(reports))
	}
}

// TestRunExperimentsClaimSubstrateUnusable: when Acquire itself errors
// (unwritable claim directory, dead daemon) the worker degrades to
// uncoordinated execution instead of failing.
func TestRunExperimentsClaimSubstrateUnusable(t *testing.T) {
	o := &Options{}
	p := testPlan("a", "b")
	// A claim "directory" that is actually a file: every Acquire errors.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := writeFile(blocker); err != nil {
		t.Fatal(err)
	}
	c := artifact.NewClaimer(filepath.Join(blocker, "claims"), "w1", time.Minute)
	reports, _, interrupted, runErr := runExperiments(context.Background(), o, p, c, nil)
	if runErr != nil || interrupted || len(reports) != 2 {
		t.Fatalf("err=%v interrupted=%v reports=%d; want degraded solo run", runErr, interrupted, len(reports))
	}
}

// TestRunExperimentsInterrupted: a cancelled context flags the run
// interrupted with whatever completed.
func TestRunExperimentsInterrupted(t *testing.T) {
	o := &Options{}
	ctx, cancel := context.WithCancel(context.Background())
	p := testPlan("a")
	p.Experiments = append(p.Experiments, Experiment{
		Name: "cancel",
		Run: func(context.Context) (string, error) {
			cancel()
			return "", ctx.Err()
		},
	})
	p.Experiments = append(p.Experiments, testPlan("after").Experiments...)
	reports, _, interrupted, runErr := runExperiments(ctx, o, p, nil, nil)
	if !interrupted || runErr != nil {
		t.Fatalf("interrupted=%v runErr=%v; want true, nil", interrupted, runErr)
	}
	if len(reports) != 1 || reports[0].Name != "a" {
		t.Fatalf("reports = %+v; want just a", reports)
	}
}

// TestNewClaims pins the substrate selection rule: -remote means the
// daemon claim table, otherwise claim files under the cache dir.
func TestNewClaims(t *testing.T) {
	dir := t.TempDir()
	o := &Options{Shard: "1/2", RunID: "r1", CacheDir: dir, Lease: time.Minute}
	if _, ok := newClaims(o).(*artifact.Claimer); !ok {
		t.Errorf("cachedir-only claims = %T, want *artifact.Claimer", newClaims(o))
	}
	o.Remote = "http://127.0.0.1:1"
	if _, ok := newClaims(o).(*artifact.RemoteClaimer); !ok {
		t.Errorf("remote claims = %T, want *artifact.RemoteClaimer", newClaims(o))
	}
}

// TestVerifyOne covers the three verification outcomes.
func TestVerifyOne(t *testing.T) {
	want := map[string]string{"a": "sha-a"}
	mismatches := 0
	verifyOne("a", "sha-a", want, "ref.json", &mismatches)
	verifyOne("missing", "sha-x", want, "ref.json", &mismatches)
	if mismatches != 0 {
		t.Fatalf("mismatches = %d after ok+skip, want 0", mismatches)
	}
	verifyOne("a", "sha-wrong-ENOUGH-CHARS", want, "ref.json", &mismatches)
	if mismatches != 1 {
		t.Fatalf("mismatches = %d after divergence, want 1", mismatches)
	}
}

// TestAppendLocalReport: the shared report writer round-trips through
// benchreport, honoring JSONFile and the Attach hook.
func TestAppendLocalReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "part.json")
	o := &Options{JSONFile: path, Label: "t", Cores: 16, Shard: "1/2"}
	p := testPlan("a")
	attached := false
	p.Attach = func(r *benchreport.Report) { attached = true; r.Explore = nil }
	reports := []benchreport.Experiment{{Name: "a", Output: "out-a", OutputSHA256: "x"}}
	if err := appendLocalReport(o, p, harness.New(harness.Options{}), nil, reports, time.Second, false, nil); err != nil {
		t.Fatal(err)
	}
	if !attached {
		t.Error("Attach hook not called")
	}
	runs, err := benchreport.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r := runs[len(runs)-1]
	if r.Label != "t" || r.Cores != 16 || r.Shard != "1/2" || len(r.Experiments) != 1 {
		t.Fatalf("report = %+v", r)
	}
	if r.Replay == nil {
		t.Fatal("report missing replay section")
	}
}

func writeFile(path string) error {
	return os.WriteFile(path, []byte("x"), 0o644)
}

// TestRunLocalSkipsPlanUnderCellTimeout pins that a solo run with
// per-cell deadlines does not plan: RunPlan would execute nothing
// then, and planning compiles.
func TestRunLocalSkipsPlanUnderCellTimeout(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Hour} {
		planned := false
		p := testPlan("a")
		p.Work = func(context.Context) ([]harness.WorkUnit, error) {
			planned = true
			return nil, nil
		}
		o := &Options{Quiet: true, CellTimeout: timeout, CacheBudget: harness.DefaultCacheBudget >> 20}
		if code := runLocal(context.Background(), o, func(*harness.Env) *Plan { return p }); code != 0 {
			t.Fatalf("-celltimeout %v: runLocal exit %d", timeout, code)
		}
		if planned != (timeout == 0) {
			t.Errorf("-celltimeout %v: planned = %v, want %v", timeout, planned, timeout == 0)
		}
	}
}
