package benchreport

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func exp(name, sha string, ms float64) Experiment {
	return Experiment{Name: name, WallMillis: ms, OutputSHA256: sha, Output: "out:" + name}
}

// TestAppendConcurrent races many appenders on one file: every report
// must land exactly once (the lock serializes read-modify-write; no run
// may be dropped by a lost update).
func TestAppendConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Append(path, Report{Label: fmt.Sprintf("run-%d", i), Cores: 16})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	runs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != n {
		t.Fatalf("got %d runs after %d concurrent appends; reports were dropped", len(runs), n)
	}
	seen := map[string]bool{}
	for _, r := range runs {
		if seen[r.Label] {
			t.Fatalf("run %s appended twice", r.Label)
		}
		seen[r.Label] = true
	}
}

func TestAppendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	r := Report{
		Label:       "one",
		Timestamp:   "2026-08-07T00:00:00Z",
		Parallel:    1,
		Cores:       16,
		Experiments: []Experiment{exp("fig9", "aaa", 12.5)},
		Replay:      &Replay{Recordings: 3, Claims: 2, Steals: 1, DupSuppressed: 4},
	}
	if err := Append(path, r); err != nil {
		t.Fatal(err)
	}
	runs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs[0], r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", runs[0], r)
	}
}

func TestMergeCanonicalOrder(t *testing.T) {
	order := []string{"fig1", "fig7", "fig9", "tlp"}
	a := Report{Shard: "1/2", Cores: 16, Parallel: 1, TotalMillis: 100,
		Experiments: []Experiment{exp("fig9", "ccc", 3), exp("fig1", "aaa", 1)},
		Replay:      &Replay{Recordings: 2, Compiles: 30, Profiles: 10, Claims: 5, Steals: 1}}
	b := Report{Shard: "2/2", Cores: 16, Parallel: 1, TotalMillis: 150,
		Experiments: []Experiment{exp("tlp", "ddd", 4), exp("fig7", "bbb", 2)},
		Replay:      &Replay{Recordings: 1, Compiles: 12, Profiles: 4, Claims: 4, DupSuppressed: 3}}
	m, err := Merge([]Report{a, b}, order)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range m.Experiments {
		names = append(names, e.Name)
	}
	if !reflect.DeepEqual(names, order) {
		t.Fatalf("merged order = %v; want %v", names, order)
	}
	// Merge must be deterministic in part order for the experiment list:
	// swapping workers reorders PerWorker but not the experiments.
	m2, err := Merge([]Report{b, a}, order)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Experiments, m2.Experiments) {
		t.Fatal("merged experiment list depends on worker order")
	}
	if m.Workers != 2 || len(m.PerWorker) != 2 || m.PerWorker[0].Worker != "1/2" {
		t.Fatalf("per-worker section wrong: %+v", m.PerWorker)
	}
	if m.Replay.Recordings != 3 || m.Replay.Compiles != 42 || m.Replay.Profiles != 14 || m.Replay.Claims != 9 || m.Replay.Steals != 1 || m.Replay.DupSuppressed != 3 {
		t.Fatalf("aggregate counters wrong: %+v", m.Replay)
	}
	if m.TotalMillis != 150 {
		t.Fatalf("merged total = %v; want max of workers (150)", m.TotalMillis)
	}
}

func TestMergeDuplicateAgreement(t *testing.T) {
	order := []string{"fig9"}
	a := Report{Shard: "1/2", Experiments: []Experiment{exp("fig9", "aaaaaaaaaaaaaa", 3)}}
	b := Report{Shard: "2/2", Experiments: []Experiment{exp("fig9", "aaaaaaaaaaaaaa", 5)}}
	m, err := Merge([]Report{a, b}, order)
	if err != nil {
		t.Fatalf("identical duplicate (stolen lease rerun) must merge: %v", err)
	}
	if len(m.Experiments) != 1 {
		t.Fatalf("got %d experiments; want deduplicated 1", len(m.Experiments))
	}

	b.Experiments[0].OutputSHA256 = "bbbbbbbbbbbbbb"
	if _, err := Merge([]Report{a, b}, order); err == nil {
		t.Fatal("divergent duplicate outputs must fail the merge")
	}
}

func TestMergeRejectsMixedConfig(t *testing.T) {
	order := []string{"fig9"}
	a := Report{Shard: "1/2", Cores: 16}
	b := Report{Shard: "2/2", Cores: 8}
	if _, err := Merge([]Report{a, b}, order); err == nil {
		t.Fatal("mixed -cores across workers must fail the merge")
	}
}

func TestMergeUnknownExperiment(t *testing.T) {
	a := Report{Shard: "1/1", Experiments: []Experiment{exp("fig99", "aaa", 1)}}
	if _, err := Merge([]Report{a}, []string{"fig9"}); err == nil {
		t.Fatal("unknown experiment must fail the merge")
	}
}

// TestMergeDivergenceNamesWorkers pins the content of the
// disagreeing-hash error: the operator gets both hashes and which
// worker produced each, not just "mismatch" — that identification is
// what makes a nondeterminism report actionable.
func TestMergeDivergenceNamesWorkers(t *testing.T) {
	order := []string{"fig9"}
	a := Report{Shard: "1/2", Experiments: []Experiment{exp("fig9", "aaaaaaaaaaaaaa", 3)}}
	b := Report{Shard: "3/4", Experiments: []Experiment{exp("fig9", "bbbbbbbbbbbbbb", 5)}}
	_, err := Merge([]Report{a, b}, order)
	if err == nil {
		t.Fatal("divergent duplicate outputs must fail the merge")
	}
	for _, want := range []string{"fig9", "1/2", "3/4", "aaaaaaaaaaaa", "bbbbbbbbbbbb"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("divergence error %q does not name %q", err, want)
		}
	}
}

// TestMergeRejectsMixedParallel completes the config-consistency
// matrix: Cores is covered above; a worker that ran with a different
// -parallel also poisons the merged wall-clocks and must be rejected.
func TestMergeRejectsMixedParallel(t *testing.T) {
	order := []string{"fig9"}
	a := Report{Shard: "1/2", Cores: 16, Parallel: 1}
	b := Report{Shard: "2/2", Cores: 16, Parallel: 4}
	if _, err := Merge([]Report{a, b}, order); err == nil {
		t.Fatal("mixed -parallel across workers must fail the merge")
	}
}

func TestMergeEmpty(t *testing.T) {
	if _, err := Merge(nil, []string{"fig9"}); err == nil {
		t.Fatal("merging zero partials must fail, not return a hollow report")
	}
}

// TestAppendCorruptFile pins the append error path: an existing file
// that is not a run array must fail the append with the path in the
// error, and must be left untouched — Append never "repairs" a file it
// cannot parse (the corruption may be a user's unrelated JSON).
func TestAppendCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	corrupt := []byte(`{"not": "an array"}`)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	err := Append(path, Report{Label: "x"})
	if err == nil {
		t.Fatal("append onto a non-array file must fail")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("append error %q does not name the file", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, corrupt) {
		t.Fatalf("failed append rewrote the corrupt file: %q", got)
	}
}

// TestLoadErrorPaths covers the reader's failure modes: missing file,
// non-array content, and an empty array (a report file that exists but
// carries no runs is an error, not an empty success — callers index
// runs[len(runs)-1]).
func TestLoadErrorPaths(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("loading a missing file must fail")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`"just a string"`), 0o644)
	if _, err := Load(bad); err == nil {
		t.Fatal("loading a non-array file must fail")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`[]`), 0o644)
	if _, err := Load(empty); err == nil {
		t.Fatal("loading an empty run array must fail")
	}
}

// TestAppendCrashedLockHolder simulates a writer that died while
// holding the append lock. flock is released by the kernel when the
// holder's file descriptor closes — including on process crash — so a
// blocked Append must wake and complete once the dead holder's
// descriptor goes away, and the resulting file must contain exactly
// the blocked writer's run. The "crash" here is closing the descriptor
// without an orderly unlock, which is byte-for-byte what process death
// does to an advisory lock.
func TestAppendCrashedLockHolder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")

	// Take the lock the way a writer would, then "crash".
	holder, err := os.OpenFile(path+".lock", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Flock(int(holder.Fd()), syscall.LOCK_EX); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- Append(path, Report{Label: "survivor"}) }()

	// The appender must be blocked on the crashed holder's lock, not
	// writing: give it time to reach flock, then confirm no file
	// appeared.
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("append completed (%v) while a live lock holder existed", err)
	default:
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("blocked appender touched the report file: stat err=%v", err)
	}

	// Crash the holder: close the descriptor without LOCK_UN.
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("append after holder crash: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("append still blocked after the lock holder's descriptor closed")
	}
	runs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Label != "survivor" {
		t.Fatalf("got %+v; want exactly the survivor's run", runs)
	}
}
