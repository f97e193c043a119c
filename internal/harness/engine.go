package harness

// The parallel experiment engine. Every figure generator enumerates its
// experiment cells (workload x level x arch config x ref/train) as
// independent jobs and fans them across its Env's worker pool with
// parMapCells;
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
//     promptly and parMapCells always drains its own workers before
//     returning — no goroutine outlives the call that started it except
//     memo computations, which exit as soon as their waiters are gone.
//   - Panic isolation: a panicking cell fails only its own figure. The
//     worker converts the panic into a *PanicError carrying the job
//     index, the cell identity (workload x level x arch config, when
//     the figure provides a labeler) and the stack.
//   - Deadlines: Options.CellTimeout bounds each cell's wall clock. A
//     timed-out cell degrades into its zero value and is reported on
//     the figure's Partials collector instead of failing the figure;
//     without a collector the deadline error fails the figure like any
//     other error, so a partial table can never masquerade as a
//     complete one.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is a recovered worker panic, converted into an error so a
// panicking experiment cell fails its own figure — with the cell's
// identity attached — instead of killing the process with a bare
// goroutine trace.
type PanicError struct {
	Job   int    // job index within the parMapCells call
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
	mu      sync.Mutex
	cells   []string
	timeout time.Duration // the deadline the cells missed
}

// add records one cell degraded under deadline d.
func (p *Partials) add(cell string, d time.Duration) {
	p.mu.Lock()
	p.cells = append(p.cells, cell)
	p.timeout = d
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
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.cells) == 0 {
		return ""
	}
	return fmt.Sprintf("%s %d cell(s) timed out after %v and hold zero values: %v\n",
		partialMarker, len(p.cells), p.timeout, p.cells)
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

// ParMap runs f(ctx, 0..n-1) on workers goroutines (<= 0: GOMAXPROCS)
// and returns the results in index order, with parMapCells's error,
// panic and cancellation contract and no cell deadline. It is the
// engine's pool for other tools: cmd/helix-fuzz sweeps generator
// seeds with it.
func ParMap[T any](ctx context.Context, workers, n int, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return parMapCells(ctx, workers, 0, n, nil, f)
}

// parMapCells runs f(ctx, 0..n-1) on workers goroutines (<= 0:
// GOMAXPROCS) and returns the results in index order. An Env passes its
// Options.Parallelism and Options.CellTimeout. With one worker (or one
// job) it runs inline. If any job fails, the lowest-indexed error among
// executed jobs is returned and remaining unstarted jobs are skipped.
//
// cell, when non-nil, names job i's experiment cell for error
// attribution and degradation reports. Each job runs under the per-cell
// deadline timeout (<= 0: none) with panic recovery; see runCell.
// Workers observe ctx between jobs and the call always drains its own
// workers before returning, so cancellation returns ctx.Err() promptly
// and leaks nothing.
func parMapCells[T any](ctx context.Context, workers int, timeout time.Duration, n int, cell func(int) string, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := runCell(ctx, timeout, i, cell, f)
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
				v, err := runCell(ctx, timeout, i, cell, f)
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

// runCell executes one parMapCells job: under the per-cell deadline d
// when d > 0, with panics recovered into *PanicError. A job that
// fails with its own cell deadline (the parent context is still live)
// degrades into the zero value and is recorded on the context's
// Partials collector; without a collector the deadline error propagates
// like any other failure.
func runCell[T any](ctx context.Context, d time.Duration, i int, cell func(int) string, f func(ctx context.Context, i int) (T, error)) (v T, err error) {
	cctx := ctx
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
			p.add(label, d)
			var zero T
			return zero, nil
		}
	}
	return v, err
}
