package harness

// The parallel experiment engine. Every figure generator enumerates its
// experiment cells (workload x level x arch config x ref/train) as
// independent jobs and fans them across a worker pool with parMap;
// shared work (compilations, sequential baselines) is deduplicated with
// singleflight-style memoization so concurrent figures never compile
// the same configuration twice. Results are always assembled in cell
// order, so output is byte-identical at any parallelism level.
//
// Robustness contract (see DESIGN.md "Robustness"):
//
//   - Cancellation: every entry point takes a context. Workers check it
//     between jobs, memo waiters select on it, and the simulator polls
//     it on the step-accounting path, so a cancelled sweep returns
//     promptly and parMap always drains its own workers before
//     returning — no goroutine outlives the call that started it except
//     memo computations, which exit as soon as their waiters are gone.
//   - Panic isolation: a panicking cell fails only its own figure. The
//     worker converts the panic into a *PanicError carrying the job
//     index, the cell identity (workload x level x arch config, when
//     the figure provides a labeler) and the stack.
//   - Deadlines: SetCellTimeout bounds each cell's wall clock. A
//     timed-out cell degrades into its zero value and is reported on
//     the figure's Partials collector instead of failing the figure.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"helixrc/internal/artifact"
)

// parallelism is the configured worker count; <= 0 means GOMAXPROCS.
var parallelism atomic.Int32

// SetParallelism sets the worker count used by the experiment engine.
// n <= 0 restores the default (GOMAXPROCS). Safe to call concurrently,
// but intended to be set before generating figures.
func SetParallelism(n int) { parallelism.Store(int32(n)) }

// Parallelism returns the resolved worker count (>= 1).
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// cellTimeoutNS is the per-cell wall-clock deadline in nanoseconds;
// <= 0 disables it.
var cellTimeoutNS atomic.Int64

// SetCellTimeout bounds the wall clock of every experiment cell.
// d <= 0 (the default) disables the bound. A cell that exceeds its
// deadline is reaped without aborting its siblings: when the enclosing
// figure carries a Partials collector (Experiments installs one), the
// cell degrades into its zero value and is listed as degraded; without
// a collector the deadline error fails the figure like any other error,
// so a partial table can never masquerade as a complete one.
func SetCellTimeout(d time.Duration) { cellTimeoutNS.Store(int64(d)) }

// CellTimeout returns the configured per-cell deadline (0 = none).
func CellTimeout() time.Duration { return time.Duration(cellTimeoutNS.Load()) }

// SetLogger routes engine diagnostics (cache-eviction notices and other
// non-fatal events) to l. nil restores the default stderr logger; pass
// log.New(io.Discard, "", 0) — or call SetQuiet — to silence the engine
// entirely (helix-bench -quiet does, and tests do). The diagnostics are
// emitted by the artifact stores backing the harness caches, so this
// simply forwards to artifact.SetLogger.
func SetLogger(l *log.Logger) { artifact.SetLogger(l) }

// SetQuiet discards all engine diagnostics.
func SetQuiet() { SetLogger(log.New(io.Discard, "", 0)) }

// traceRecordings / traceReplays count how harness simulations were
// served: by recording a fresh trace (full execution) or by replaying a
// cached one. A batched traversal counts each lane it retimed once,
// however many twin groups' keys the lane's Result is published under.
// Cumulative across ResetCaches; helix-bench reports them.
var (
	traceRecordings atomic.Int64
	traceReplays    atomic.Int64
)

// ReplayStats returns the cumulative (recordings, replays) counts.
func ReplayStats() (recordings, replays int64) {
	return traceRecordings.Load(), traceReplays.Load()
}

// compiles counts every hcc.Compile the harness issues (the cached
// compile tier's fills and the TLP cells' fills). A warm run that finds
// its Results cached compiles only for the analysis experiments that
// read loops and profiles. Cumulative across ResetCaches.
var compiles atomic.Int64

// CompileStats returns the cumulative count of harness compilations.
func CompileStats() int64 { return compiles.Load() }

// profiles counts the training profiles the harness runs: one per
// (workload, cores) input, however many levels and alias tiers compile
// from it. Cumulative across ResetCaches.
var profiles atomic.Int64

// ProfileStats returns the cumulative count of harness training
// profiles.
func ProfileStats() int64 { return profiles.Load() }

// batchesIssued / batchLanes / batchFallbacks count how the batched
// retimer served sweep figures: traversals of two or more lanes issued,
// lanes actually retimed across them (a traversal shared by twin groups
// retimes each distinct config once), and one-lane traversals.
// Cumulative across ResetCaches; helix-bench reports them.
var (
	batchesIssued  atomic.Int64
	batchLanes     atomic.Int64
	batchFallbacks atomic.Int64
)

// BatchStats returns the cumulative batched-retiming counters:
// batches issued, lanes retimed across them, and one-lane fallbacks.
func BatchStats() (batches, lanes, fallbacks int64) {
	return batchesIssued.Load(), batchLanes.Load(), batchFallbacks.Load()
}

// PanicError is a recovered worker panic, converted into an error so a
// panicking experiment cell fails its own figure — with the cell's
// identity attached — instead of killing the process with a bare
// goroutine trace.
type PanicError struct {
	Job   int    // job index within the parMap call
	Cell  string // cell identity (workload x level x arch), "" if unknown
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	id := fmt.Sprintf("job %d", e.Job)
	if e.Cell != "" {
		id = fmt.Sprintf("job %d (cell %s)", e.Job, e.Cell)
	}
	return fmt.Sprintf("harness: %s panicked: %v\n%s", id, e.Value, e.Stack)
}

// Partials collects the identities of cells that were degraded (timed
// out and replaced by zero values) while generating one figure. A
// figure generated with a Partials collector in its context never fails
// on a per-cell deadline; it completes with the surviving cells and the
// collector names the holes.
type Partials struct {
	mu    sync.Mutex
	cells []string
}

// add records one degraded cell.
func (p *Partials) add(cell string) {
	p.mu.Lock()
	p.cells = append(p.cells, cell)
	p.mu.Unlock()
}

// Cells returns the degraded cell identities in completion order.
func (p *Partials) Cells() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.cells...)
}

// partialMarker opens the note Note appends to a partial figure.
const partialMarker = "PARTIAL FIGURE:"

// Note renders the degradation report appended to a partial figure, or
// "" when every cell completed (so complete figures stay byte-identical
// to runs without a collector).
func (p *Partials) Note() string {
	cells := p.Cells()
	if len(cells) == 0 {
		return ""
	}
	return fmt.Sprintf("%s %d cell(s) timed out after %v and hold zero values: %v\n",
		partialMarker, len(cells), CellTimeout(), cells)
}

// IsPartial reports whether a rendered experiment output carries the
// note of a partial figure.
func IsPartial(out string) bool { return strings.Contains(out, partialMarker) }

type partialsKey struct{}

// WithPartials installs a fresh Partials collector, opting the figure
// generated under the returned context into graceful degradation of
// timed-out cells.
func WithPartials(ctx context.Context) (context.Context, *Partials) {
	p := &Partials{}
	return context.WithValue(ctx, partialsKey{}, p), p
}

// partialsFrom returns the installed collector, or nil.
func partialsFrom(ctx context.Context) *Partials {
	p, _ := ctx.Value(partialsKey{}).(*Partials)
	return p
}

// ParMap runs f(ctx, 0..n-1) across the engine's worker pool and
// returns the results in index order. It is the exported face of parMap
// for other drivers (cmd/helix-fuzz sweeps generator seeds with it);
// the figure generators use the unexported spellings.
func ParMap[T any](ctx context.Context, n int, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return parMap(ctx, n, f)
}

// parMap is parMapCells without cell labels.
func parMap[T any](ctx context.Context, n int, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return parMapCells(ctx, n, nil, f)
}

// parMapCells runs f(ctx, 0..n-1) across the engine's worker pool and
// returns the results in index order. With one worker (or one job) it
// runs inline. If any job fails, the lowest-indexed error among
// executed jobs is returned and remaining unstarted jobs are skipped.
//
// cell, when non-nil, names job i's experiment cell for error
// attribution and degradation reports. Each job runs under the per-cell
// deadline (SetCellTimeout) with panic recovery; see runCell. Workers
// observe ctx between jobs and the call always drains its own workers
// before returning, so cancellation returns ctx.Err() promptly and
// leaks nothing.
func parMapCells[T any](ctx context.Context, n int, cell func(int) string, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := Parallelism()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := runCell(ctx, i, cell, f)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				v, err := runCell(ctx, i, cell, f)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// runCell executes one parMap job: under the per-cell deadline when one
// is configured, with panics recovered into *PanicError. A job that
// fails with its own cell deadline (the parent context is still live)
// degrades into the zero value and is recorded on the context's
// Partials collector; without a collector the deadline error propagates
// like any other failure.
func runCell[T any](ctx context.Context, i int, cell func(int) string, f func(ctx context.Context, i int) (T, error)) (v T, err error) {
	cctx := ctx
	d := CellTimeout()
	if d > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			pe := &PanicError{Job: i, Value: p, Stack: debug.Stack()}
			if cell != nil {
				pe.Cell = cell(i)
			}
			var zero T
			v, err = zero, pe
		}
	}()
	v, err = f(cctx, i)
	if err != nil && d > 0 && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		if p := partialsFrom(ctx); p != nil {
			label := fmt.Sprintf("job %d", i)
			if cell != nil {
				label = cell(i)
			}
			p.add(label)
			var zero T
			return zero, nil
		}
	}
	return v, err
}
