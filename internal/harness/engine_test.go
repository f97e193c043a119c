package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"helixrc/internal/artifact"
)

// testEnv serves the tests that only check outputs, as one long-running
// process would: the first test to need a cell fills it, and every later
// one reads it. A test that counts work or needs cold caches builds its
// own Env.
var testEnv = New(Options{CacheBudget: DefaultCacheBudget})

// TestMain silences engine diagnostics (cache-eviction notices) for the
// whole package's tests.
func TestMain(m *testing.M) {
	artifact.SetQuiet()
	os.Exit(m.Run())
}

// checkGoroutineLeaks snapshots the goroutine count and returns a
// function that fails the test if the count has not settled back by the
// deferred call (with a grace period for runtime bookkeeping goroutines
// to exit).
func checkGoroutineLeaks(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			runtime.GC()
			after := runtime.NumGoroutine()
			if after <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestParMapOrder(t *testing.T) {
	out, err := ParMap(context.Background(), 8, 100, func(_ context.Context, i int) (int, error) { return i * 3, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
}

func TestParMapInline(t *testing.T) {
	var order []int
	_, err := ParMap(context.Background(), 1, 5, func(_ context.Context, i int) (int, error) {
		order = append(order, i) // safe: single worker runs inline
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline execution out of order: %v", order)
		}
	}
}

func TestParMapError(t *testing.T) {
	boom := errors.New("boom")
	_, err := ParMap(context.Background(), 4, 50, func(_ context.Context, i int) (int, error) {
		if i == 17 {
			return 0, fmt.Errorf("cell %d: %w", i, boom)
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// TestParMapPanic pins the panic-isolation contract: a panicking job at
// parallelism 8 fails the call cleanly with a *PanicError naming the job
// index and cell identity, and no worker goroutine leaks.
func TestParMapPanic(t *testing.T) {
	defer checkGoroutineLeaks(t)()
	cell := func(i int) string { return fmt.Sprintf("wl%d/L3/conv16", i) }
	_, err := parMapCells(context.Background(), 8, 0, 64, cell, func(_ context.Context, i int) (int, error) {
		if i == 13 {
			panic("cell exploded")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Job != 13 {
		t.Errorf("Job = %d, want 13", pe.Job)
	}
	if pe.Cell != "wl13/L3/conv16" {
		t.Errorf("Cell = %q, want wl13/L3/conv16", pe.Cell)
	}
	if !strings.Contains(err.Error(), "job 13 (cell wl13/L3/conv16)") {
		t.Errorf("error text missing cell identity: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
}

// TestParMapCancel pins promptness: cancelling the context mid-call
// returns context.Canceled quickly, with all workers drained.
func TestParMapCancel(t *testing.T) {
	defer checkGoroutineLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	go func() {
		for started.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	_, err := ParMap(ctx, 4, 1000, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		<-ctx.Done() // a well-behaved cell observes cancellation
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled ParMap took %v, want < 2s", d)
	}
}

// TestCellTimeoutDegradation pins graceful degradation: with a per-cell
// deadline and a Partials collector installed, a cell that exceeds its
// deadline yields the zero value and is reported, and the call succeeds.
func TestCellTimeoutDegradation(t *testing.T) {
	ctx, partial := WithPartials(context.Background())
	cell := func(i int) string { return fmt.Sprintf("wl%d/L3/rc16", i) }
	out, err := parMapCells(ctx, 2, 20*time.Millisecond, 4, cell, func(cctx context.Context, i int) (int, error) {
		if i == 2 { // a slow cell that honours its deadline
			<-cctx.Done()
			return 0, cctx.Err()
		}
		return i + 100, nil
	})
	if err != nil {
		t.Fatalf("degraded call failed: %v", err)
	}
	want := []int{100, 101, 0, 103}
	for i, v := range out {
		if v != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, v, want[i])
		}
	}
	cells := partial.Cells()
	if len(cells) != 1 || cells[0] != "wl2/L3/rc16" {
		t.Fatalf("Partials.Cells() = %v, want [wl2/L3/rc16]", cells)
	}
	if note := partial.Note(); !strings.Contains(note, "PARTIAL FIGURE") || !strings.Contains(note, "wl2/L3/rc16") {
		t.Errorf("Note() = %q, want PARTIAL FIGURE naming the cell", note)
	}
}

// TestCellTimeoutWithoutCollectorFails: without a Partials collector the
// deadline error propagates, so a partial table can never silently pass
// for a complete one.
func TestCellTimeoutWithoutCollectorFails(t *testing.T) {
	_, err := parMapCells(context.Background(), 1, 10*time.Millisecond, 1, nil, func(cctx context.Context, i int) (int, error) {
		<-cctx.Done()
		return 0, cctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestPartialsNoteEmpty: a complete figure renders no degradation note,
// keeping default-run output byte-identical.
func TestPartialsNoteEmpty(t *testing.T) {
	_, partial := WithPartials(context.Background())
	if note := partial.Note(); note != "" {
		t.Fatalf("Note() = %q for a complete figure, want empty", note)
	}
}

// TestFigureCancelMidRun pins the sweep-level promptness guarantee:
// cancelling a figure generation from cold caches returns
// context.Canceled well within two seconds.
func TestFigureCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a full Figure 7 generation")
	}
	defer checkGoroutineLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := New(Options{Parallelism: 4}).Figure7(ctx, 16)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled Figure7 returned after %v, want < 2s", elapsed)
	}
}

// TestParallelDeterminism is the engine's headline guarantee: the
// rendered evaluation is byte-identical no matter how many workers run
// the experiment cells. Figure 7 (speedup table with geomeans) and
// Table 1 (coverage) are generated sequentially and at 8 workers from
// cold caches and compared as strings. The goroutine-leak check wraps
// the whole run: the engine must not strand workers or memo
// computations.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Figure 7 and Table 1 twice")
	}
	defer checkGoroutineLeaks(t)()
	gen := func(workers int) (string, string) {
		t.Helper()
		e := New(Options{Parallelism: workers})
		f7, err := e.Figure7(context.Background(), 16)
		if err != nil {
			t.Fatalf("parallel=%d: Figure7: %v", workers, err)
		}
		t1, err := e.Table1(context.Background())
		if err != nil {
			t.Fatalf("parallel=%d: Table1: %v", workers, err)
		}
		return f7.Format(), FormatTable1(t1)
	}
	seqF7, seqT1 := gen(1)
	parF7, parT1 := gen(8)
	if seqF7 != parF7 {
		t.Errorf("Figure 7 output differs across parallelism:\n--- sequential ---\n%s--- parallel ---\n%s", seqF7, parF7)
	}
	if seqT1 != parT1 {
		t.Errorf("Table 1 output differs across parallelism:\n--- sequential ---\n%s--- parallel ---\n%s", seqT1, parT1)
	}
}
