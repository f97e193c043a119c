package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"helixrc/internal/benchreport"
	"helixrc/internal/harness"
)

// pollInterval is how long a client waits between status polls.
const pollInterval = time.Millisecond

// quickJobs is the measured request count of a -quick serve run.
const quickJobs = 20

// daemon is one helix-serve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan struct{} // closed when the process has exited
	err    error         // Wait's error, valid after done
	once   sync.Once
}

// startDaemon starts helix-serve on a free loopback port with two job
// workers and waits until it has written its bound address to addrFile,
// which must not exist yet.
func (e *env) startDaemon(ctx context.Context, addrFile string) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	d.cmd = e.command(ctx, "helix-serve", "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-quiet", "-concurrency", "2")
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.After(30 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(data), "\n") {
			d.base = "http://" + strings.TrimSpace(string(data))
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("helix-serve exited at start-up: %v: %s", d.err, tail(d.stderr.String()))
		case <-deadline:
			d.stop()
			return nil, fmt.Errorf("helix-serve did not bind within 30s")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM (killing it after a minute),
// waits for it to exit and returns its peak RSS. Repeated calls are
// no-ops.
func (d *daemon) stop() (rssMB float64, err error) {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(time.Minute):
			d.cmd.Process.Kill()
			<-d.done
		}
		rssMB = peakRSSMB(d.cmd.ProcessState)
		// A daemon stopped before it installed its signal handler dies of
		// the SIGTERM itself; that is the stop asked for, not a failure.
		ws, _ := d.cmd.ProcessState.Sys().(syscall.WaitStatus)
		if d.err != nil && !(ws.Signaled() && ws.Signal() == syscall.SIGTERM) {
			err = fmt.Errorf("helix-serve: %v: %s", d.err, tail(d.stderr.String()))
		}
	})
	return rssMB, err
}

// client is the benchmark's figure-job client: submit, then poll every
// pollInterval until the job ends. It keeps every latency sample, so
// percentiles are exact rather than histogram buckets.
type client struct {
	base string
	hc   *http.Client
}

// newClient allows at most conns connections to the daemon.
func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes the JSON reply into out.
func (c *client) call(ctx context.Context, method, path, body string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %v", method, path, resp.StatusCode, err)
	}
	return resp.StatusCode, nil
}

// jobView is the part of GET /jobs/{id} the benchmark reads.
type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Result *struct {
		OutputSHA256 string `json:"output_sha256"`
		Partial      bool   `json:"partial"`
	} `json:"result"`
	QueueMS float64 `json:"queue_ms"`
	RunMS   float64 `json:"run_ms"`
}

// job is one served figure request as the client saw it.
type job struct {
	exp     string
	start   time.Time
	latency time.Duration   // submit to the poll that saw the job end
	submit  time.Duration   // POST round trip
	polls   []time.Duration // GET round trips
	view    jobView
	err     error
}

// figure submits one figure job, polls it to the end and verifies its
// output hash.
func (c *client) figure(ctx context.Context, exp, wantSHA string) job {
	j := job{exp: exp, start: time.Now()}
	var v jobView
	code, err := c.call(ctx, http.MethodPost, "/jobs", fmt.Sprintf(`{"kind":"figure","experiment":%q}`, exp), &v)
	j.submit = time.Since(j.start)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit %s: HTTP %d: %s", exp, code, v.Error)
	}
	for err == nil && (v.Status == "queued" || v.Status == "running") {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			continue
		case <-time.After(pollInterval):
		}
		t0 := time.Now()
		code, err = c.call(ctx, http.MethodGet, "/jobs/"+v.ID, "", &v)
		j.polls = append(j.polls, time.Since(t0))
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll %s (%s): HTTP %d: %s", v.ID, exp, code, v.Error)
		}
	}
	j.latency = time.Since(j.start)
	j.view = v
	switch {
	case err != nil:
	case v.Status != "done" || v.Result == nil:
		err = fmt.Errorf("job %s (%s) ended %s: %s", v.ID, exp, v.Status, v.Error)
	case v.Result.Partial:
		err = fmt.Errorf("job %s (%s) returned a partial figure", v.ID, exp)
	case v.Result.OutputSHA256 != wantSHA:
		err = fmt.Errorf("job %s (%s): output hash %.12s, reference %.12s", v.ID, exp, v.Result.OutputSHA256, wantSHA)
	}
	j.err = err
	return j
}

// metrics fetches the daemon's /metrics snapshot.
func (c *client) metrics(ctx context.Context) (*benchreport.Serve, error) {
	var s benchreport.Serve
	code, err := c.call(ctx, http.MethodGet, "/metrics", "", &s)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/metrics: HTTP %d", code)
	}
	if err == nil && s.Replay == nil {
		err = fmt.Errorf("/metrics carries no cache counters")
	}
	return &s, err
}

// deck draws experiments uniformly: each client deals a seeded shuffle
// of all of them before reshuffling, so every client's mix holds each
// experiment equally often (up to the last, partial deck) and a run's
// share of slow figures does not depend on the seed.
type deck struct {
	rng   *rand.Rand
	cards []string
	next  int
}

func newDeck(exps []string, seed int64) *deck {
	return &deck{rng: rand.New(rand.NewSource(seed)), cards: append([]string(nil), exps...)}
}

func (d *deck) draw() string {
	if d.next == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

// runServeFigures: set-up starts a daemon and submits each figure once
// (cold: it records and fills the memory tier); the measured phase is
// two closed-loop clients submitting figures uniformly at random to the
// warm daemon. Figures then cost a cache read — except tlp, which the
// harness never caches — and every figure job holds the experiment
// lock, so a tlp job stalls the other client's figures behind it.
func runServeFigures(r *runner) error {
	exps := harness.ExperimentNames()
	if r.quick {
		exps = []string{"fig9"}
	}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < r.setups; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return err
			}
		}
		dir, err := r.freshDir("serve")
		if err != nil {
			return err
		}
		t0 := time.Now()
		if d, err = r.env.startDaemon(r.ctx, filepath.Join(dir, "addr")); err != nil {
			return err
		}
		c := newClient(d.base, 1)
		for _, exp := range exps {
			j := c.figure(r.ctx, exp, r.env.wantEval[exp])
			r.tr.span(laneClient, "setup", exp, j.start, j.latency, map[string]any{"job": j.view.ID})
			r.attempt(j.err)
		}
		c.close()
		r.raw["setup_s"] = append(r.raw["setup_s"], time.Since(t0).Seconds())
		if err := r.ctx.Err(); err != nil {
			return err
		}
	}

	clients := min(2, runtime.NumCPU())
	c := newClient(d.base, clients)
	defer c.close()
	before, err := c.metrics(r.ctx)
	if err != nil {
		return err
	}
	jobs := make([][]job, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dk := newDeck(exps, r.seed*1000+int64(k))
			r.measure(quickJobs/clients, func() error {
				exp := dk.draw()
				jobs[k] = append(jobs[k], c.figure(r.ctx, exp, r.env.wantEval[exp]))
				return nil
			})
		}()
	}
	wg.Wait()
	phase := time.Since(start)
	if err := r.ctx.Err(); err != nil {
		return err
	}
	after, err := c.metrics(r.ctx)
	if err != nil {
		return err
	}
	rss, err := d.stop()
	if err != nil {
		return err
	}

	var lat, queue, run []float64
	polls := 0
	for k, js := range jobs {
		r.tr.thread(laneClient+k, fmt.Sprintf("client %d", k))
		for _, j := range js {
			r.tr.span(laneClient+k, "job", j.exp, j.start, j.latency, map[string]any{"job": j.view.ID, "queue_ms": j.view.QueueMS, "run_ms": j.view.RunMS})
			r.attempt(j.err)
			if j.err != nil {
				continue
			}
			lat = append(lat, ms(j.latency))
			queue = append(queue, j.view.QueueMS)
			run = append(run, j.view.RunMS)
			r.raw["server.run."+j.exp+"_ms"] = append(r.raw["server.run."+j.exp+"_ms"], j.view.RunMS)
			r.raw["server.submit_ms"] = append(r.raw["server.submit_ms"], ms(j.submit))
			for _, p := range j.polls {
				r.raw["server.status_ms"] = append(r.raw["server.status_ms"], ms(p))
			}
			polls += len(j.polls)
		}
	}
	r.raw["op_p50_ms"] = lat
	r.raw["peak_rss_mb"] = []float64{rss}
	r.vals["ops_per_s"] = float64(len(lat)) / phase.Seconds()
	r.vals["server.job_p95_ms"] = percentile(lat, 95)
	r.vals["server.queue_ms_p50"] = percentile(queue, 50)
	r.vals["server.queue_ms_p95"] = percentile(queue, 95)
	r.vals["server.run_ms_p50"] = percentile(run, 50)
	r.vals["server.run_ms_p95"] = percentile(run, 95)
	if len(lat) > 0 {
		r.vals["server.polls_per_job"] = float64(polls) / float64(len(lat))
	}

	// The daemon's cache counters over the measured phase: a warm daemon
	// records nothing.
	delta := *after.Replay
	delta.Recordings -= before.Replay.Recordings
	delta.Replays -= before.Replay.Replays
	delta.MemHits -= before.Replay.MemHits
	delta.MemMisses -= before.Replay.MemMisses
	delta.DiskHits -= before.Replay.DiskHits
	delta.DiskWrites -= before.Replay.DiskWrites
	delta.DiskLoadMS -= before.Replay.DiskLoadMS
	r.addCache(&delta)
	r.vals["server.recordings"] = float64(delta.Recordings)
	if delta.Recordings != 0 {
		r.problem("the warm daemon recorded %d traces during the measured phase (want 0)", delta.Recordings)
	}
	return nil
}
