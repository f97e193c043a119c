package server

// End-to-end service tests: a real Server behind httptest, driven over
// HTTP exactly as a client would. These pin the tentpole's acceptance
// criteria at the service boundary:
//
//   - submit -> poll -> result works for every job kind, and a figure
//     served by the daemon is byte-identical to the batch harness;
//   - a warm daemon serves a repeated figure with ZERO recordings and
//     ZERO replays (the two-tier store does all the work);
//   - figure jobs run concurrently, like every other job kind;
//   - cancellation mid-figure yields a Partial-flagged result and does
//     not poison the memo tier — an identical resubmission produces
//     the full, correct figure;
//   - admission control sheds deterministically at capacity with
//     Retry-After, deadlines spent in the queue fail before work
//     starts, and graceful shutdown finishes in-flight jobs while
//     rejecting new ones.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"helixrc/internal/benchreport"
	"helixrc/internal/harness"
)

// withTestCache gives the harness a fresh disk tier and a clean memory
// tier for one test, restoring memory-only defaults afterwards, so
// tests cannot leak cache state into each other.
func withTestCache(t *testing.T) {
	t.Helper()
	harness.SetQuiet()
	harness.ResetCaches()
	harness.SetCacheDir(t.TempDir())
	t.Cleanup(func() {
		harness.SetCacheDir("")
		harness.ResetCaches()
	})
}

// newTestServer starts a Server behind httptest and registers a
// graceful teardown.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

// postJob submits a request body and decodes the response.
func postJob(t *testing.T, base string, body string) (jobView, int, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return v, resp.StatusCode, resp.Header
}

// getJob polls one job once.
func getJob(t *testing.T, base, id string) (jobView, int) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode status: %v", err)
		}
	}
	return v, resp.StatusCode
}

// await polls until the job reaches a terminal state.
func await(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		v, code := getJob(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: HTTP %d", id, code)
		}
		if v.Status.terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitRunning polls until the job is running. It fails if the job
// finishes first (too fast for the test) or never starts.
func awaitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		cur, _ := getJob(t, base, id)
		if cur.Status == StatusRunning {
			return
		}
		if cur.Status.terminal() {
			t.Fatalf("job %s finished (%s) before it was seen running", id, cur.Status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started running", id)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// cancelJob issues DELETE /jobs/{id}.
func cancelJob(t *testing.T, base, id string) (jobView, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

// directFigure renders an experiment through the batch harness path
// (what helix-bench does), for byte-identity comparison.
func directFigure(t *testing.T, name string, cores int) (string, string) {
	t.Helper()
	e, ok := harness.FindExperiment(name, cores)
	if !ok {
		t.Fatalf("unknown experiment %s", name)
	}
	out, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("direct %s: %v", name, err)
	}
	return out, fmt.Sprintf("%x", sha256.Sum256([]byte(out)))
}

// TestE2ESubmitPollResultAllKinds drives one job of each kind through
// submit -> poll -> result and checks the kind-specific payloads. The
// figure output must be byte-identical to the batch harness rendering
// of the same experiment.
func TestE2ESubmitPollResultAllKinds(t *testing.T) {
	withTestCache(t)
	// Render the reference figure through the batch harness first.
	wantOut, wantSHA := directFigure(t, "fig9", 16)

	_, ts := newTestServer(t, Config{Concurrency: 2})

	t.Run("compile", func(t *testing.T) {
		v, code, _ := postJob(t, ts.URL, `{"kind":"compile","workload":"164.gzip","level":3,"cores":4}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		v = await(t, ts.URL, v.ID)
		if v.Status != StatusDone || v.Result == nil {
			t.Fatalf("compile ended %s (%s)", v.Status, v.Error)
		}
		if v.Result.Coverage <= 0 || v.Result.Loops <= 0 {
			t.Errorf("compile result implausible: %+v", v.Result)
		}
	})

	t.Run("simulate", func(t *testing.T) {
		v, code, _ := postJob(t, ts.URL, `{"kind":"simulate","workload":"164.gzip","cores":4,"ref":true}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		v = await(t, ts.URL, v.ID)
		if v.Status != StatusDone || v.Result == nil {
			t.Fatalf("simulate ended %s (%s)", v.Status, v.Error)
		}
		r := v.Result
		if r.SeqCycles <= 0 || r.ParCycles <= 0 || r.Speedup <= 0 {
			t.Errorf("simulate cycles implausible: %+v", r)
		}
		if r.Speedup < 1 {
			t.Logf("note: speedup %.2f < 1 (legal, but unusual for 164.gzip)", r.Speedup)
		}
	})

	t.Run("simulate conventional", func(t *testing.T) {
		v, _, _ := postJob(t, ts.URL, `{"kind":"simulate","workload":"164.gzip","cores":4,"ring":false}`)
		v = await(t, ts.URL, v.ID)
		if v.Status != StatusDone {
			t.Fatalf("conventional simulate ended %s (%s)", v.Status, v.Error)
		}
	})

	t.Run("figure byte-identical to batch harness", func(t *testing.T) {
		v, code, _ := postJob(t, ts.URL, `{"kind":"figure","experiment":"fig9"}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		v = await(t, ts.URL, v.ID)
		if v.Status != StatusDone || v.Result == nil {
			t.Fatalf("figure ended %s (%s)", v.Status, v.Error)
		}
		if v.Result.Partial {
			t.Error("complete figure flagged partial")
		}
		if v.Result.Output != wantOut {
			t.Errorf("served figure differs from batch harness output")
		}
		if v.Result.OutputSHA256 != wantSHA {
			t.Errorf("served hash %s != batch hash %s", v.Result.OutputSHA256, wantSHA)
		}
		if v.QueueMS < 0 || v.RunMS <= 0 {
			t.Errorf("timing fields implausible: queue=%.2fms run=%.2fms", v.QueueMS, v.RunMS)
		}
	})
}

// TestE2EWarmFigureZeroRecordingsZeroReplays pins the tentpole's
// warm-cache criterion at the service boundary: after the daemon
// served a figure once, serving it again performs zero trace
// recordings AND zero trace replays — every cell is a result-tier hit
// — and the bytes are identical.
func TestE2EWarmFigureZeroRecordingsZeroReplays(t *testing.T) {
	withTestCache(t)
	s, ts := newTestServer(t, Config{Concurrency: 2})

	submit := func() jobView {
		v, code, _ := postJob(t, ts.URL, `{"kind":"figure","experiment":"fig9"}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		v = await(t, ts.URL, v.ID)
		if v.Status != StatusDone || v.Result == nil {
			t.Fatalf("figure ended %s (%s)", v.Status, v.Error)
		}
		return v
	}

	cold := submit()
	rec0, rep0 := harness.ReplayStats()
	warm := submit()
	rec1, rep1 := harness.ReplayStats()

	if rec1 != rec0 {
		t.Errorf("warm service run recorded %d traces, want 0", rec1-rec0)
	}
	if rep1 != rep0 {
		t.Errorf("warm service run replayed %d traces, want 0", rep1-rep0)
	}
	if warm.Result.OutputSHA256 != cold.Result.OutputSHA256 {
		t.Errorf("warm hash %s != cold hash %s", warm.Result.OutputSHA256, cold.Result.OutputSHA256)
	}
	if warm.Result.Output != cold.Result.Output {
		t.Error("warm output bytes differ from cold")
	}

	snap := s.MetricsSnapshot()
	if snap.Completed < 2 {
		t.Errorf("snapshot completed = %d, want >= 2", snap.Completed)
	}
	if snap.Replay == nil || snap.Replay.MemHits == 0 {
		t.Errorf("snapshot shows no memory-tier hits: %+v", snap.Replay)
	}
}

// TestE2EWarmTLPZeroCompiles pins the persisted TLP cells at the
// service boundary: a repeated tlp figure job is answered entirely by
// the result tier — zero compiles, zero recordings — with the cold
// job's bytes, and /metrics counts the cold job's compiles and training
// profiles since start (one profile per workload, shared by its V2 and
// V3 cells).
func TestE2EWarmTLPZeroCompiles(t *testing.T) {
	withTestCache(t)
	s, ts := newTestServer(t, Config{Concurrency: 2})

	submit := func() jobView {
		v, code, _ := postJob(t, ts.URL, `{"kind":"figure","experiment":"tlp"}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		v = await(t, ts.URL, v.ID)
		if v.Status != StatusDone || v.Result == nil {
			t.Fatalf("tlp ended %s (%s)", v.Status, v.Error)
		}
		return v
	}

	cold := submit()
	coldCompiles := s.MetricsSnapshot().Replay.Compiles
	if coldCompiles == 0 {
		t.Fatal("cold tlp job compiled nothing; test is vacuous")
	}
	if got, want := s.MetricsSnapshot().Replay.Profiles, coldCompiles/2; got != want {
		t.Errorf("cold tlp job trained %d profiles for %d compiles, want %d", got, coldCompiles, want)
	}
	rec0, _ := harness.ReplayStats()
	comp0 := harness.CompileStats()
	warm := submit()
	rec1, _ := harness.ReplayStats()
	if n := harness.CompileStats() - comp0; n != 0 {
		t.Errorf("warm tlp job compiled %d times, want 0", n)
	}
	if rec1 != rec0 {
		t.Errorf("warm tlp job recorded %d traces, want 0", rec1-rec0)
	}
	if warm.Result.OutputSHA256 != cold.Result.OutputSHA256 {
		t.Errorf("warm hash %s != cold hash %s", warm.Result.OutputSHA256, cold.Result.OutputSHA256)
	}
	if got := s.MetricsSnapshot().Replay.Compiles; got != coldCompiles {
		t.Errorf("snapshot compiles = %d after the warm job, want %d", got, coldCompiles)
	}
}

// TestE2EFigureJobsOverlap pins that figure jobs run at the configured
// concurrency: with a cold fig11a running on one of two workers, a warm
// fig9 submitted after it finishes first, with the bytes it served
// before.
func TestE2EFigureJobsOverlap(t *testing.T) {
	withTestCache(t)
	_, ts := newTestServer(t, Config{Concurrency: 2})

	submit := func(exp string) string {
		v, code, _ := postJob(t, ts.URL, fmt.Sprintf(`{"kind":"figure","experiment":%q}`, exp))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", exp, code)
		}
		return v.ID
	}
	first := await(t, ts.URL, submit("fig9"))
	if first.Status != StatusDone || first.Result == nil {
		t.Fatalf("first fig9 ended %s (%s)", first.Status, first.Error)
	}

	cold := submit("fig11a")
	awaitRunning(t, ts.URL, cold)

	warm := await(t, ts.URL, submit("fig9"))
	if warm.Status != StatusDone || warm.Result == nil {
		t.Fatalf("warm fig9 ended %s (%s)", warm.Status, warm.Error)
	}
	if cur, _ := getJob(t, ts.URL, cold); cur.Status.terminal() {
		t.Errorf("cold job already done (%s) when the warm fig9 finished: figure jobs ran one at a time", cur.Status)
	}
	if warm.Result.OutputSHA256 != first.Result.OutputSHA256 {
		t.Errorf("warm fig9 hash %s != first %s", warm.Result.OutputSHA256, first.Result.OutputSHA256)
	}
	if v := await(t, ts.URL, cold); v.Status != StatusDone {
		t.Fatalf("cold fig11a ended %s (%s)", v.Status, v.Error)
	}
}

// TestE2ECancelMidFigureDoesNotPoison cancels a figure job mid-run and
// pins the two halves of the cancellation contract: the canceled job
// ends canceled with a Partial-flagged result (never mistakable for
// the real figure), and an identical resubmission produces the full,
// correct figure — the memo tier was not poisoned by the aborted run.
func TestE2ECancelMidFigureDoesNotPoison(t *testing.T) {
	withTestCache(t)
	_, ts := newTestServer(t, Config{Concurrency: 1})

	v, code, _ := postJob(t, ts.URL, `{"kind":"figure","experiment":"fig1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := v.ID

	// Wait until the job is actually running (a cold fig1 takes long
	// enough that this cannot race completion), then cancel.
	awaitRunning(t, ts.URL, id)
	if _, code := cancelJob(t, ts.URL, id); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}

	v = await(t, ts.URL, id)
	if v.Status != StatusCanceled {
		t.Fatalf("canceled job ended %s (%s), want canceled", v.Status, v.Error)
	}
	if v.Result == nil || !v.Result.Partial {
		t.Fatalf("canceled job must carry a Partial-flagged result, got %+v", v.Result)
	}
	if v.Result.Output != "" {
		t.Error("canceled job leaked figure output")
	}
	if !strings.Contains(v.Error, "canceled") {
		t.Errorf("error text %q does not say canceled", v.Error)
	}
	// Cancel again: idempotent, still canceled.
	if again, code := cancelJob(t, ts.URL, id); code != http.StatusOK || again.Status != StatusCanceled {
		t.Errorf("second cancel: HTTP %d status %s", code, again.Status)
	}

	// The resubmission must produce the complete figure.
	v2, _, _ := postJob(t, ts.URL, `{"kind":"figure","experiment":"fig1"}`)
	v2 = await(t, ts.URL, v2.ID)
	if v2.Status != StatusDone || v2.Result == nil {
		t.Fatalf("resubmission after cancel ended %s (%s)", v2.Status, v2.Error)
	}
	if v2.Result.Partial {
		t.Error("resubmission flagged partial — cancellation poisoned the caches")
	}
	// And match the batch harness byte for byte.
	wantOut, wantSHA := directFigure(t, "fig1", 16)
	if v2.Result.OutputSHA256 != wantSHA || v2.Result.Output != wantOut {
		t.Error("resubmitted figure differs from batch harness output")
	}
}

// TestE2EDeadlineSpentInQueue pins deadline propagation through
// admission: a job whose deadline elapses while it waits behind a slow
// job fails with a deadline error and a Partial-flagged result, before
// doing any work.
func TestE2EDeadlineSpentInQueue(t *testing.T) {
	withTestCache(t)
	_, ts := newTestServer(t, Config{Concurrency: 1})

	// Occupy the only worker with a cold figure.
	slow, code, _ := postJob(t, ts.URL, `{"kind":"figure","experiment":"fig9"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit slow: HTTP %d", code)
	}
	// Queue a compile with a deadline far shorter than the slow job.
	fast, code, _ := postJob(t, ts.URL, `{"kind":"compile","workload":"164.gzip","deadline_ms":30}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit deadlined: HTTP %d", code)
	}

	v := await(t, ts.URL, fast.ID)
	if v.Status != StatusError {
		t.Fatalf("deadlined job ended %s, want error", v.Status)
	}
	if !strings.Contains(v.Error, "deadline exceeded") {
		t.Errorf("error %q does not name the deadline", v.Error)
	}
	if !strings.Contains(v.Error, "before start") {
		t.Errorf("error %q should say the deadline was spent in the queue", v.Error)
	}
	if v.Result == nil || !v.Result.Partial {
		t.Errorf("deadline-cut job must carry a Partial result, got %+v", v.Result)
	}
	if sv := await(t, ts.URL, slow.ID); sv.Status != StatusDone {
		t.Fatalf("slow job ended %s (%s)", sv.Status, sv.Error)
	}
}

// TestE2EShedWithRetryAfter fills a deliberately tiny server (one
// worker, one queue slot) and pins admission at the HTTP layer: the
// overflow submit gets 429 + Retry-After, the shed counter moves, and
// the shed job id does not exist (nothing half-admitted).
func TestE2EShedWithRetryAfter(t *testing.T) {
	withTestCache(t)
	s, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1})

	running, code, _ := postJob(t, ts.URL, `{"kind":"figure","experiment":"fig9"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d", code)
	}
	queued, code, _ := postJob(t, ts.URL, `{"kind":"figure","experiment":"fig10"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", code)
	}

	shedView, code, hdr := postJob(t, ts.URL, `{"kind":"figure","experiment":"fig7"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: HTTP %d, want 429", code)
	}
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if shedView.ID != "" {
		if _, code := getJob(t, ts.URL, shedView.ID); code != http.StatusNotFound {
			t.Errorf("shed job still queryable (HTTP %d)", code)
		}
	}
	if n := s.shed.Load(); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}

	// Cancel both admitted jobs so teardown is quick; the queued one
	// must finish as canceled-while-queued with a Partial result.
	if _, code := cancelJob(t, ts.URL, queued.ID); code != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d", code)
	}
	qv := await(t, ts.URL, queued.ID)
	if qv.Status != StatusCanceled || qv.Result == nil || !qv.Result.Partial {
		t.Errorf("queued cancel: status %s result %+v", qv.Status, qv.Result)
	}
	if !strings.Contains(qv.Error, "canceled while queued") {
		t.Errorf("queued cancel error = %q", qv.Error)
	}
	cancelJob(t, ts.URL, running.ID)
	await(t, ts.URL, running.ID)
}

// TestE2EValidation pins the 400/404 surface: malformed and
// ill-typed requests are rejected at admission with an explanatory
// error, unknown ids are 404.
func TestE2EValidation(t *testing.T) {
	withTestCache(t)
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name, body, wantSub string
	}{
		{"unknown kind", `{"kind":"render"}`, "unknown job kind"},
		{"compile without workload", `{"kind":"compile"}`, "requires a workload"},
		{"compile with experiment", `{"kind":"compile","workload":"164.gzip","experiment":"fig9"}`, "takes no experiment"},
		{"unknown workload", `{"kind":"compile","workload":"999.nope"}`, "999.nope"},
		{"bad level", `{"kind":"compile","workload":"164.gzip","level":7}`, "accepted range is 1..3"},
		{"bad cores", `{"kind":"compile","workload":"164.gzip","cores":-2}`, "accepted range is 1..1024"},
		{"figure with workload", `{"kind":"figure","experiment":"fig9","workload":"164.gzip"}`, "takes no workload"},
		{"figure without experiment", `{"kind":"figure"}`, "requires an experiment"},
		{"unknown experiment", `{"kind":"figure","experiment":"fig99"}`, "unknown experiment"},
		{"negative ring knob", `{"kind":"simulate","workload":"164.gzip","link_latency":-1}`, "link_latency"},
		{"negative deadline", `{"kind":"compile","workload":"164.gzip","deadline_ms":-5}`, "deadline_ms"},
		{"unknown field", `{"kind":"compile","workload":"164.gzip","bogus":1}`, "bogus"},
		{"not json", `kind=figure`, "bad request body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
			var e errorBody
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, tc.wantSub) {
				t.Errorf("error %q missing %q", e.Error, tc.wantSub)
			}
		})
	}

	if _, code := getJob(t, ts.URL, "j999"); code != http.StatusNotFound {
		t.Errorf("unknown id poll: HTTP %d, want 404", code)
	}
	if _, code := cancelJob(t, ts.URL, "j999"); code != http.StatusNotFound {
		t.Errorf("unknown id cancel: HTTP %d, want 404", code)
	}
}

// TestE2EHealthzAndMetrics pins the observability surface: healthz
// reports liveness with queue depth, /metrics decodes into the shared
// benchreport.Serve schema with the instrumented series present.
func TestE2EHealthzAndMetrics(t *testing.T) {
	withTestCache(t)
	_, ts := newTestServer(t, Config{Concurrency: 3, QueueDepth: 7})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz: HTTP %d %v", resp.StatusCode, hz)
	}

	// Serve one quick job so endpoint and job series exist.
	v, _, _ := postJob(t, ts.URL, `{"kind":"compile","workload":"183.equake","level":1,"cores":2}`)
	await(t, ts.URL, v.ID)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap benchreport.Serve
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Concurrency != 3 || snap.QueueCap != 7 {
		t.Errorf("config gauges wrong: %+v", snap)
	}
	if snap.Submitted < 1 || snap.Completed < 1 {
		t.Errorf("counters did not move: %+v", snap)
	}
	series := map[string]bool{}
	for _, e := range snap.Endpoints {
		series[e.Name] = true
	}
	for _, want := range []string{"submit", "status"} {
		if !series[want] {
			t.Errorf("endpoint series %q missing from %v", want, snap.Endpoints)
		}
	}
	if len(snap.Jobs) == 0 || snap.Jobs[0].Name != "job:compile" {
		t.Errorf("job series missing: %+v", snap.Jobs)
	}
	if snap.Replay == nil {
		t.Error("replay counters missing")
	}
}

// TestE2EGracefulShutdown pins the drain contract over HTTP: during
// shutdown the in-flight job finishes (done, full result), healthz and
// submit report draining with 503, and Shutdown returns only after the
// drain.
func TestE2EGracefulShutdown(t *testing.T) {
	withTestCache(t)
	s := New(Config{Concurrency: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, code, _ := postJob(t, ts.URL, `{"kind":"figure","experiment":"fig9"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// Let the worker pick it up before starting the drain.
	for {
		cur, _ := getJob(t, ts.URL, v.ID)
		if cur.Status != StatusQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// While draining: healthz 503, submit 503.
	waitFor(t, 5*time.Second, func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	}, "healthz to report draining")
	if _, code, _ := postJob(t, ts.URL, `{"kind":"compile","workload":"164.gzip"}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: HTTP %d, want 503", code)
	}

	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The in-flight job was not cut short.
	fv, _ := getJob(t, ts.URL, v.ID)
	if fv.Status != StatusDone || fv.Result == nil || fv.Result.Partial {
		t.Fatalf("in-flight job ended %s (%s) %+v — drain must let it finish", fv.Status, fv.Error, fv.Result)
	}
}

// TestE2ELoadGeneratorHotkey runs the load generator against a live
// server with a 100% hot-key figure mix and verifies the whole
// reporting chain: no errors, no sheds, no hash mismatches, a
// plausible summary, and an SLO budget evaluation over the produced
// report.
func TestE2ELoadGeneratorHotkey(t *testing.T) {
	withTestCache(t)
	s, ts := newTestServer(t, Config{Concurrency: 2})
	_, wantSHA := directFigure(t, "fig9", 16)

	res, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:       ts.URL,
		Clients:       2,
		Duration:      1500 * time.Millisecond,
		Mix:           "hotkey",
		HotFrac:       1.0, // every request hits the hot key: deterministic
		Kind:          "figure",
		HotExperiment: "fig9",
		Seed:          42,
		VerifyHashes:  map[string]string{"fig9": wantSHA},
	})
	if err != nil {
		t.Fatal(err)
	}
	l := res.Summary
	if l.Completed == 0 {
		t.Fatal("load run completed nothing")
	}
	if l.Errors != 0 || l.HashMismatches != 0 || l.Sheds != 0 {
		t.Errorf("load run not clean: %+v", l)
	}
	if l.E2E.Count != l.Completed {
		t.Errorf("e2e sample count %d != completed %d", l.E2E.Count, l.Completed)
	}
	if l.HotKey != "fig9" || l.Mix != "hotkey" || l.Throughput <= 0 {
		t.Errorf("summary fields wrong: %+v", l)
	}
	if res.Serve == nil {
		t.Fatal("no server snapshot attached")
	}
	if res.Serve.Completed < l.Completed {
		t.Errorf("server completed %d < client completed %d", res.Serve.Completed, l.Completed)
	}

	// The produced report must pass a generous budget and fail a
	// hostile one — the full slocheck path minus the process boundary.
	report := res.Report("e2e-test")
	good := &SLOBudget{
		MinRequests:  1,
		MaxErrorRate: 0,
		MaxShedRate:  0,
		Endpoints:    []SLOEndpoint{{Name: "e2e", P95MS: 60_000}, {Name: "job:figure", P95MS: 60_000}},
	}
	if v := good.Check(&report); len(v) != 0 {
		t.Errorf("generous budget violated: %v", v)
	}
	bad := &SLOBudget{Endpoints: []SLOEndpoint{{Name: "e2e", P95MS: 0.000001}}}
	if v := bad.Check(&report); len(v) == 0 {
		t.Error("hostile budget passed")
	}

	// Deterministic verify of the server-side counters the smoke
	// checks: the hot key repeated, so the vast majority of requests
	// were warm hits with zero new recordings after the first.
	if res.Serve.Replay != nil && l.Completed > 1 && res.Serve.Replay.Recordings > res.Serve.Replay.MemHits {
		t.Errorf("hot-key run recorded more than it hit: %+v", res.Serve.Replay)
	}

	if out := FormatServe(&report); !strings.Contains(out, "mix=hotkey") || !strings.Contains(out, "job:figure") {
		t.Errorf("FormatServe output incomplete:\n%s", out)
	}

	_ = s
}

// TestE2ELoadGeneratorUniformSimulate exercises the uniform mix on
// simulate jobs: different workloads and levels, all must succeed.
func TestE2ELoadGeneratorUniformSimulate(t *testing.T) {
	withTestCache(t)
	_, ts := newTestServer(t, Config{Concurrency: 4})
	res, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:  ts.URL,
		Clients:  3,
		Duration: 1200 * time.Millisecond,
		Mix:      "uniform",
		Kind:     "simulate",
		Cores:    4,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed == 0 {
		t.Fatal("uniform load completed nothing")
	}
	if res.Summary.Errors != 0 {
		t.Errorf("uniform load saw %d errors", res.Summary.Errors)
	}
	if res.Summary.HotKey != "" {
		t.Errorf("uniform mix must not report a hot key: %+v", res.Summary)
	}
}

// TestPickRequestDeterminism pins that a seed fully determines the
// request sequence (reproducible load runs).
func TestPickRequestDeterminism(t *testing.T) {
	o := (&LoadOptions{Mix: "hotkey", Kind: "figure", Seed: 3}).withDefaults()
	draw := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		var out []string
		for i := 0; i < 20; i++ {
			r := o.pickRequest(rng)
			out = append(out, r.Experiment)
		}
		return out
	}
	a, b := draw(3), draw(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverged at %d: %s != %s", i, a[i], b[i])
		}
	}
}
