package server

// Job lifecycle. A job is born queued at POST /jobs (admission), runs
// on a queue worker, and ends done, error, or canceled. The record
// outlives the execution so pollers can fetch the result; the store
// bounds how many finished records are retained (a resident service
// must not grow without bound under sustained traffic).

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"helixrc/internal/cliutil"
	"helixrc/internal/harness"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// JobKind selects what a job computes.
type JobKind string

// The three job kinds the daemon serves, in increasing weight:
// a compile is one HCC run, a simulate is compile + baseline +
// parallel timing, a figure renders one whole experiment of the
// paper's evaluation.
const (
	JobCompile  JobKind = "compile"
	JobSimulate JobKind = "simulate"
	JobFigure   JobKind = "figure"
)

// JobStatus is the lifecycle state exposed to pollers.
type JobStatus string

// Lifecycle states. queued -> running -> done|error|canceled.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusError    JobStatus = "error"
	StatusCanceled JobStatus = "canceled"
)

// JobRequest is the POST /jobs body. Zero values take the documented
// defaults, so {"kind":"figure","experiment":"fig9"} is a complete
// request.
type JobRequest struct {
	Kind string `json:"kind"`

	// Workload/Level/Cores parameterize compile and simulate jobs.
	// Level defaults to 3 (HCCv3), Cores to 16.
	Workload string `json:"workload,omitempty"`
	Level    int    `json:"level,omitempty"`
	Cores    int    `json:"cores,omitempty"`
	// Ref selects the measured input instead of the training one for
	// simulate jobs (the paper's evaluation measures ref).
	Ref bool `json:"ref,omitempty"`
	// Ring disables the ring cache when explicitly false (conventional
	// coherence); the ring knobs mirror helix-run's flags and apply
	// only when the ring is on.
	Ring            *bool `json:"ring,omitempty"`
	LinkLatency     *int  `json:"link_latency,omitempty"`
	SignalBandwidth *int  `json:"signal_bandwidth,omitempty"`
	NodeBytes       *int  `json:"node_bytes,omitempty"`

	// Experiment names the figure/table for figure jobs (fig1..tlp).
	Experiment string `json:"experiment,omitempty"`

	// DeadlineMillis bounds the job's life from admission (queue wait
	// included): a job that exceeds it fails with a deadline error.
	// 0 takes the server's default; the server clamps to its maximum.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// normalize fills defaults and validates, returning a user-facing
// error (the HTTP layer maps it to 400).
func (r *JobRequest) normalize() error {
	switch JobKind(r.Kind) {
	case JobCompile, JobSimulate:
		if r.Experiment != "" {
			return fmt.Errorf("%s job takes no experiment", r.Kind)
		}
		if r.Workload == "" {
			return fmt.Errorf("%s job requires a workload (one of %v)", r.Kind, workloads.Names())
		}
		if known := workloads.Registered(); !slices.Contains(known, r.Workload) {
			return fmt.Errorf("unknown workload %q (have %v)", r.Workload, known)
		}
		if r.Level == 0 {
			r.Level = 3
		}
		if err := cliutil.CheckLevel(r.Level); err != nil {
			return err
		}
	case JobFigure:
		if r.Workload != "" {
			return fmt.Errorf("figure job takes no workload (the experiment names its cells)")
		}
		if r.Experiment == "" {
			return fmt.Errorf("figure job requires an experiment (one of %v)", harness.ExperimentNames())
		}
		if !slices.Contains(harness.ExperimentNames(), r.Experiment) {
			return fmt.Errorf("unknown experiment %q (have %v)", r.Experiment, harness.ExperimentNames())
		}
	default:
		return fmt.Errorf("unknown job kind %q (have compile, simulate, figure)", r.Kind)
	}
	if r.Cores == 0 {
		r.Cores = 16
	}
	if err := cliutil.CheckCores(r.Cores); err != nil {
		return err
	}
	for _, v := range []struct {
		name string
		p    *int
	}{{"link_latency", r.LinkLatency}, {"signal_bandwidth", r.SignalBandwidth}} {
		if v.p != nil {
			if err := cliutil.CheckNonNegative(v.name, *v.p, "cycles or signals per cycle, 0 = unbounded"); err != nil {
				return err
			}
		}
	}
	if r.NodeBytes != nil {
		if err := cliutil.CheckNodeBytes("node_bytes", *r.NodeBytes, r.Cores); err != nil {
			return err
		}
	}
	if r.DeadlineMillis < 0 {
		return fmt.Errorf("deadline_ms %d: accepted range is 0.. (0 = server default)", r.DeadlineMillis)
	}
	return nil
}

// arch builds the parallel-machine timing config a compile/simulate
// request describes.
func (r *JobRequest) arch() sim.Config {
	if r.Ring != nil && !*r.Ring {
		return sim.Conventional(r.Cores)
	}
	c := sim.HelixRC(r.Cores)
	if r.LinkLatency != nil {
		c.Ring.LinkLatency = *r.LinkLatency
	}
	if r.SignalBandwidth != nil {
		c.Ring.SignalBandwidth = *r.SignalBandwidth
	}
	if r.NodeBytes != nil {
		c.Ring.ArrayBytes = *r.NodeBytes
	}
	return c
}

// JobResult carries the kind-specific payload of a finished job.
type JobResult struct {
	// Compile (also set for simulate, which compiles first).
	Coverage float64 `json:"coverage,omitempty"`
	Loops    int     `json:"loops,omitempty"`

	// Simulate.
	SeqCycles int64   `json:"seq_cycles,omitempty"`
	ParCycles int64   `json:"par_cycles,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
	RetValue  int64   `json:"ret_value,omitempty"`

	// Figure.
	Output       string `json:"output,omitempty"`
	OutputSHA256 string `json:"output_sha256,omitempty"`

	// Partial flags a degraded result: a canceled or deadline-cut job
	// whose figure (if any) is incomplete. A partial result must never
	// be mistaken for the real figure — pollers check this before
	// trusting Output.
	Partial bool `json:"partial,omitempty"`
}

// Job is one admitted request and its lifecycle record.
type Job struct {
	ID   string     `json:"id"`
	Kind JobKind    `json:"kind"`
	Req  JobRequest `json:"request"`

	mu       sync.Mutex
	status   JobStatus
	result   *JobResult
	errText  string
	cancel   func() // interrupts a queued or running job; set at submit
	canceled bool   // a cancel was requested (distinguishes cancel from deadline)

	submitted time.Time
	started   time.Time
	finished  time.Time
	deadline  time.Time // absolute; zero = none
	done      chan struct{}
}

// jobView is the wire shape of GET /jobs/{id}.
type jobView struct {
	ID      string     `json:"id"`
	Kind    JobKind    `json:"kind"`
	Status  JobStatus  `json:"status"`
	Error   string     `json:"error,omitempty"`
	Result  *JobResult `json:"result,omitempty"`
	QueueMS float64    `json:"queue_ms,omitempty"`
	RunMS   float64    `json:"run_ms,omitempty"`
}

// view snapshots the job for serialization.
func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{ID: j.ID, Kind: j.Kind, Status: j.status, Error: j.errText, Result: j.result}
	if !j.started.IsZero() {
		v.QueueMS = float64(j.started.Sub(j.submitted).Microseconds()) / 1e3
		if !j.finished.IsZero() {
			v.RunMS = float64(j.finished.Sub(j.started).Microseconds()) / 1e3
		}
	}
	return v
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// terminal reports whether the job has finished (any of the three end
// states). Callers holding j.mu use the field directly.
func (s JobStatus) terminal() bool {
	return s == StatusDone || s == StatusError || s == StatusCanceled
}

// jobStore tracks jobs by id and bounds retained finished records:
// once more than retain jobs have finished, the oldest finished
// records are forgotten (pollers of evicted ids get 404, like any
// unknown id). Active jobs are never evicted.
type jobStore struct {
	mu       sync.Mutex
	next     int64
	jobs     map[string]*Job
	finished []string // finished ids in completion order
	retain   int
}

func newJobStore(retain int) *jobStore {
	if retain <= 0 {
		retain = 4096
	}
	return &jobStore{jobs: map[string]*Job{}, retain: retain}
}

// add registers a new job and assigns its id.
func (s *jobStore) add(j *Job) {
	s.mu.Lock()
	s.next++
	j.ID = "j" + strconv.FormatInt(s.next, 10)
	s.jobs[j.ID] = j
	s.mu.Unlock()
}

// remove forgets a job that was never admitted (its submit shed).
func (s *jobStore) remove(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// get returns the job by id, or nil.
func (s *jobStore) get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// finish records a job's completion and evicts beyond the retention
// bound.
func (s *jobStore) finish(j *Job) {
	s.mu.Lock()
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.retain {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}
