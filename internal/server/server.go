// Package server turns the batch evaluation harness into a resident
// HTTP/JSON service: compile, simulate and figure jobs share one harness
// Env and its tiered artifact stores, so a warm daemon serves repeated
// work at cache-hit cost instead of re-simulating.
//
// The surface is four endpoints:
//
//	POST   /jobs       submit a job   -> 202 {id} | 400 | 429 | 503
//	GET    /jobs/{id}  poll           -> 200 {status, result?} | 404
//	DELETE /jobs/{id}  cancel         -> 200 {status} | 404
//	GET    /metrics    snapshot (benchreport.Serve shape)
//	GET    /healthz    liveness/readiness
//
// Two service concerns shape the implementation:
//
//   - Admission control: a bounded queue (queue.go) with a fixed
//     worker count. A full queue sheds with 429 + Retry-After instead
//     of queueing unboundedly; a draining server rejects with 503.
//     Per-request deadlines are clamped to the server maximum and run
//     from admission, so queue wait spends the same budget run time
//     does — exactly the context plumbing the harness already honors.
//     Every job kind runs at the configured concurrency: the analyses
//     behind a figure only read the cached programs they share.
//   - Observability: every endpoint and every job kind feeds a
//     log-bucketed latency histogram (metrics.go); /metrics renders
//     p50/p95/p99, error and shed counts, queue gauges, and the
//     counters of the daemon's Env, which counts only the daemon's own
//     work, in the exact benchreport.Serve schema the SLO gate
//     consumes.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"helixrc/internal/benchreport"
	"helixrc/internal/harness"
	"helixrc/internal/hcc"
	"helixrc/internal/sim"
)

// Config sizes the daemon. Zero values take the documented defaults.
type Config struct {
	// Concurrency is the job-execution worker count (default 2).
	Concurrency int
	// QueueDepth bounds admitted-but-not-running jobs (default 64);
	// submissions beyond it shed with 429.
	QueueDepth int
	// DefaultDeadline bounds jobs that request no deadline; 0 leaves
	// them unbounded.
	DefaultDeadline time.Duration
	// MaxDeadline clamps requested deadlines (0 = no clamp).
	MaxDeadline time.Duration
	// RetainJobs bounds retained finished job records (default 4096).
	RetainJobs int
	// BlobDir enables the blob backend + claim table (blob.go): the
	// daemon stores artifact envelopes under this directory and serves
	// them to -remote workers. Empty leaves both surfaces unmounted.
	BlobDir string
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Concurrency <= 0 {
		out.Concurrency = 2
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 64
	}
	if out.RetainJobs <= 0 {
		out.RetainJobs = 4096
	}
	return out
}

// Server is the evaluation daemon. Create with New, mount Handler,
// stop with Shutdown.
type Server struct {
	env    *harness.Env
	cfg    Config
	q      *queue
	jobs   *jobStore
	mux    *http.ServeMux
	claims *claimTable // nil unless BlobDir is configured

	httpMetrics *metricSet // per-endpoint HTTP latencies
	jobMetrics  *metricSet // per-kind job execution latencies

	start time.Time

	draining  atomic.Bool
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	shed      atomic.Int64
}

// New builds a server that runs its jobs on env and starts its worker
// pool. /metrics reports env's counters, so it counts the daemon's
// traffic since start when env is the daemon's own.
func New(env *harness.Env, cfg Config) *Server {
	s := &Server{
		env:         env,
		cfg:         cfg.withDefaults(),
		httpMetrics: newMetricSet(),
		jobMetrics:  newMetricSet(),
		start:       time.Now(),
	}
	s.jobs = newJobStore(s.cfg.RetainJobs)
	s.q = newQueue(s.cfg.QueueDepth, s.cfg.Concurrency, s.runJob)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.instrument("submit", s.handleSubmit))
	s.mux.HandleFunc("GET /jobs/{id}", s.instrument("status", s.handleStatus))
	s.mux.HandleFunc("DELETE /jobs/{id}", s.instrument("cancel", s.handleCancel))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	if s.cfg.BlobDir != "" {
		s.mountBlobs()
	}
	return s
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains gracefully: new submissions are rejected
// immediately, jobs already admitted (queued or running) finish, and
// the call returns when the queue is empty or ctx expires (in which
// case workers keep draining in the background, but the caller stops
// waiting).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.q.beginShutdown()
	done := make(chan struct{})
	go func() {
		s.q.drain()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain incomplete: %w", ctx.Err())
	}
}

// --- HTTP layer ---

// statusRecorder captures the response code for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with latency/error/shed accounting under
// the given endpoint name.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := s.httpMetrics.get(name)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h(rec, r)
		m.lat.observe(time.Since(t0))
		switch {
		case rec.code == http.StatusTooManyRequests:
			m.sheds.Add(1)
		case rec.code >= 500:
			m.errors.Add(1)
		}
	}
}

// writeJSON renders v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// decodeJobRequest reads a POST /jobs body: one JobRequest, without
// unknown fields.
func decodeJobRequest(body io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if err := req.normalize(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	now := time.Now()
	j := &Job{
		Kind:      JobKind(req.Kind),
		Req:       req,
		status:    StatusQueued,
		submitted: now,
		done:      make(chan struct{}),
	}
	d := time.Duration(req.DeadlineMillis) * time.Millisecond
	if d == 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (d == 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	if d > 0 {
		j.deadline = now.Add(d)
	}

	s.jobs.add(j)
	if err := s.q.submit(j); err != nil {
		s.jobs.remove(j.ID)
		switch {
		case errors.Is(err, errDraining):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		default:
			s.shed.Add(1)
			// The hint is deliberately coarse: a shed client should back
			// off for about one job service time, and the cheapest robust
			// estimate of that is "a second".
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		}
		return
	}
	s.submitted.Add(1)
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return
	}
	j.mu.Lock()
	switch {
	case j.status.terminal():
		// Late cancel: idempotent, report the final state.
	case j.status == StatusQueued:
		// Not yet picked up: finish it here; runJob skips terminal jobs.
		j.canceled = true
		j.status = StatusCanceled
		j.errText = "canceled while queued"
		j.result = &JobResult{Partial: true}
		j.finished = time.Now()
		close(j.done)
		s.canceled.Add(1)
		defer s.jobs.finish(j)
	default: // running
		j.canceled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"uptime_ms":   float64(time.Since(s.start).Microseconds()) / 1e3,
		"queue_depth": s.q.depth(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

// MetricsSnapshot assembles the current service metrics in the shared
// report schema: admission gauges, per-endpoint and per-job-kind
// latency summaries, and the Env's replay and artifact-store counters.
func (s *Server) MetricsSnapshot() *benchreport.Serve {
	return &benchreport.Serve{
		UptimeMillis:  float64(time.Since(s.start).Microseconds()) / 1e3,
		Concurrency:   s.cfg.Concurrency,
		QueueCap:      s.cfg.QueueDepth,
		QueueDepth:    s.q.depth(),
		QueueDepthMax: s.q.depthMax.Load(),
		Draining:      s.draining.Load(),
		Submitted:     s.submitted.Load(),
		Completed:     s.completed.Load(),
		Failed:        s.failed.Load(),
		Canceled:      s.canceled.Load(),
		Shed:          s.shed.Load(),
		Endpoints:     s.httpMetrics.summaries(),
		Jobs:          s.jobMetrics.summaries(),
		Replay:        s.env.Stats().Replay(),
	}
}

// --- job execution ---

// runJob is the queue worker entry: transition to running, execute
// under the job's deadline, record the outcome.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.status.terminal() {
		// Canceled while queued; already finished by handleCancel.
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	ctx := context.Background()
	var cancel context.CancelFunc
	if !j.deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.cancel = cancel
	wasCanceled := j.canceled
	j.mu.Unlock()
	defer cancel()
	if wasCanceled {
		// Cancel raced admission: don't start work that is already
		// unwanted.
		s.finishJob(j, nil, context.Canceled)
		return
	}

	t0 := time.Now()
	res, err := s.execute(ctx, j)
	d := time.Since(t0)
	m := s.jobMetrics.get("job:" + string(j.Kind))
	m.lat.observe(d)
	if err != nil {
		m.errors.Add(1)
	}
	s.finishJob(j, res, err)
}

// finishJob records the terminal state. A canceled job (DELETE) ends
// canceled; a deadline-cut or failed job ends error. Both carry a
// Partial-flagged result so a poller can never mistake the residue
// for a full answer — and because the harness memo tiers detach
// canceled waiters without poisoning the computation, a later
// identical job recomputes cleanly (e2e tests pin this).
func (s *Server) finishJob(j *Job, res *JobResult, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = StatusDone
		j.result = res
		s.completed.Add(1)
	case j.canceled && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		j.status = StatusCanceled
		j.errText = "canceled: " + err.Error()
		j.result = &JobResult{Partial: true}
		s.canceled.Add(1)
	default:
		j.status = StatusError
		j.errText = err.Error()
		if errors.Is(err, context.DeadlineExceeded) {
			j.errText = "deadline exceeded: " + err.Error()
			j.result = &JobResult{Partial: true}
		}
		s.failed.Add(1)
	}
	close(j.done)
	j.mu.Unlock()
	s.jobs.finish(j)
}

// execute dispatches one job to the server's harness Env.
func (s *Server) execute(ctx context.Context, j *Job) (*JobResult, error) {
	if err := ctx.Err(); err != nil {
		// Deadline spent in the queue: fail before doing any work.
		return nil, fmt.Errorf("before start (queued %v): %w", time.Since(j.submitted).Round(time.Millisecond), err)
	}
	req := &j.Req
	switch j.Kind {
	case JobCompile:
		_, comp, err := s.env.CachedCompile(ctx, req.Workload, hcc.Level(req.Level), req.Cores)
		if err != nil {
			return nil, err
		}
		return &JobResult{Coverage: comp.Coverage, Loops: len(comp.Loops)}, nil

	case JobSimulate:
		arch := req.arch()
		par, comp, err := s.env.CachedRun(ctx, req.Workload, hcc.Level(req.Level), arch, req.Ref)
		if err != nil {
			return nil, err
		}
		seq, err := s.env.CachedBaseline(ctx, req.Workload, sim.Conventional(req.Cores), req.Ref)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", req.Workload, err)
		}
		if seq.RetValue != par.RetValue {
			return nil, fmt.Errorf("%s: parallel result %d != sequential %d", req.Workload, par.RetValue, seq.RetValue)
		}
		return &JobResult{
			Coverage:  comp.Coverage,
			Loops:     len(comp.Loops),
			SeqCycles: seq.Cycles,
			ParCycles: par.Cycles,
			Speedup:   sim.Speedup(seq, par),
			RetValue:  par.RetValue,
		}, nil

	case JobFigure:
		e, ok := s.env.FindExperiment(req.Experiment, req.Cores)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", req.Experiment)
		}
		out, err := e.Run(ctx)
		if err != nil {
			return nil, err
		}
		return &JobResult{
			Output:       out,
			OutputSHA256: fmt.Sprintf("%x", sha256.Sum256([]byte(out))),
			Partial:      harness.IsPartial(out),
		}, nil
	}
	return nil, fmt.Errorf("unknown job kind %q", j.Kind)
}
