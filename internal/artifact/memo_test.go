package artifact

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain silences store diagnostics (cache-eviction notices) for the
// whole package's tests.
func TestMain(m *testing.M) {
	SetQuiet()
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

func TestMemoSingleflight(t *testing.T) {
	var g Memo[int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	const n = 32
	vals := make([]int, n)
	for k := 0; k < n; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := g.Do(context.Background(), "key", func(context.Context) (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[k] = v
		}()
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
	for _, v := range vals {
		if v != 42 {
			t.Fatalf("vals = %v", vals)
		}
	}
}

func TestMemoErrorCachedUntilReset(t *testing.T) {
	var g Memo[int]
	var calls atomic.Int32
	fail := func(context.Context) (int, error) { calls.Add(1); return 0, errors.New("nope") }
	if _, err := g.Do(context.Background(), "k", fail); err == nil {
		t.Fatal("want error")
	}
	if _, err := g.Do(context.Background(), "k", fail); err == nil {
		t.Fatal("want cached error")
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times before reset, want 1", c)
	}
	g.Reset()
	if _, err := g.Do(context.Background(), "k", fail); err == nil {
		t.Fatal("want error after reset")
	}
	if c := calls.Load(); c != 2 {
		t.Fatalf("fn ran %d times after reset, want 2", c)
	}
}

// TestMemoWaiterCancelDetaches pins the non-poisoning contract: a
// cancelled waiter detaches with its own ctx.Err() while the in-flight
// computation completes for the remaining waiters and is cached normally.
func TestMemoWaiterCancelDetaches(t *testing.T) {
	var g Memo[int]
	var calls atomic.Int32
	release := make(chan struct{})
	fn := func(context.Context) (int, error) {
		calls.Add(1)
		<-release
		return 42, nil
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx1, "k", fn)
		errc <- err
	}()
	// Second waiter joins the same in-flight computation.
	valc := make(chan int, 1)
	go func() {
		v, err := g.Do(context.Background(), "k", fn)
		if err != nil {
			t.Errorf("surviving waiter: %v", err)
		}
		valc <- v
	}()
	// Let both waiters attach before cancelling the first.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	cancel1()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not detach promptly")
	}
	close(release)
	if v := <-valc; v != 42 {
		t.Fatalf("surviving waiter got %d, want 42", v)
	}
	// The completed result is cached — no poisoning, no recompute.
	v, err := g.Do(context.Background(), "k", fn)
	if err != nil || v != 42 {
		t.Fatalf("post-cancel Do = %d, %v; want 42, nil", v, err)
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
}

// TestMemoAbandonedComputeNotCached: when every waiter detaches, the
// computation's context is cancelled and its (context-error) result is
// dropped, so the next caller recomputes from scratch.
func TestMemoAbandonedComputeNotCached(t *testing.T) {
	defer checkGoroutineLeaks(t)()
	var g Memo[int]
	var calls atomic.Int32
	started := make(chan struct{})
	fn := func(cctx context.Context) (int, error) {
		calls.Add(1)
		close(started)
		<-cctx.Done() // reaped when the last waiter detaches
		return 0, cctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx, "k", fn)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter got %v, want context.Canceled", err)
	}
	// The key recomputes: the dying computation never poisoned it.
	v, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("recompute = %d, %v; want 7, nil", v, err)
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("abandoned fn ran %d times, want 1", c)
	}
}

// TestMemoConcurrentReset exercises Do racing Reset — the race detector
// validates the concurrency contract ResetCaches depends on.
func TestMemoConcurrentReset(t *testing.T) {
	var g Memo[int]
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, err := g.Do(context.Background(), fmt.Sprintf("k%d", i%5), func(context.Context) (int, error) { return i, nil })
				if err != nil || v < 0 {
					t.Errorf("worker %d: %v", k, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			g.Reset()
		}
	}()
	wg.Wait()
}

// TestMemoEvictsBeforeDoReturns pins the order of publication: a
// computation wakes its waiters only after its entry is charged to the
// budget and the LRU victim is gone, so Do never returns while the memo
// is over budget. The cost function sleeps, which holds the accounting
// open for 20 ms: a memo that woke its waiters first would show a woken
// waiter no eviction, every time.
func TestMemoEvictsBeforeDoReturns(t *testing.T) {
	ctx := context.Background()
	g := NewMemo("slowcost", func(v int) int64 {
		time.Sleep(20 * time.Millisecond)
		return int64(v)
	})
	g.SetBudget(100)
	for _, key := range []string{"a", "b"} {
		if _, err := g.Do(ctx, key, func(context.Context) (int, error) { return 40, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// "c" takes the memo to 120 > 100, so "a" must go. Watch the signal
	// c's waiters wake on, and read the eviction counter (no lock) then.
	release := make(chan struct{})
	returned := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx, "c", func(context.Context) (int, error) { <-release; return 40, nil })
		returned <- err
	}()
	var done chan struct{}
	for done == nil {
		g.mu.Lock()
		if c, ok := g.m["c"]; ok {
			done = c.done
		}
		g.mu.Unlock()
		runtime.Gosched()
	}
	close(release)
	<-done
	if ev, _ := g.EvictionStats(); ev != 1 {
		t.Errorf("waiters woke with %d evictions, want 1", ev)
	}
	if err := <-returned; err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Peek("a"); ok {
		t.Error("the least recently used entry survived past the budget")
	}
}

// TestMemoBudget exercises the byte-budget LRU: eviction order, the
// never-evict-most-recent rule, and hit-driven reordering.
func TestMemoBudget(t *testing.T) {
	g := NewMemo("test", func(v int) int64 { return int64(v) })
	g.SetBudget(100)

	get := func(key string, v int) {
		t.Helper()
		got, err := g.Do(context.Background(), key, func(context.Context) (int, error) { return v, nil })
		if err != nil || got != v {
			t.Fatalf("Do(%s) = %d, %v", key, got, err)
		}
	}
	recomputed := func(key string) bool {
		fresh := false
		if _, err := g.Do(context.Background(), key, func(context.Context) (int, error) { fresh = true; return 0, nil }); err != nil {
			t.Fatal(err)
		}
		return fresh
	}

	get("a", 40)
	get("b", 40)
	get("c", 40) // 120 > 100: "a" (LRU) must go
	if !recomputed("a") {
		t.Error("a should have been evicted")
	}
	// Recomputing "a" (cost 0 now) must not have evicted b or c yet;
	// touching b makes c the LRU, so one more insert drops c, not b.
	get("b", 40)
	get("d", 40)
	if recomputed("b") {
		t.Error("b was touched and should have survived")
	}
	if !recomputed("c") {
		t.Error("c was least recently used and should have been evicted")
	}
	if ev, bytes := g.EvictionStats(); ev < 2 || bytes < 80 {
		t.Errorf("EvictionStats() = %d evictions, %d bytes; want >= 2, >= 80", ev, bytes)
	}

	// A single over-budget entry is kept (never evict the most recent).
	g.Reset()
	get("huge", 500)
	if recomputed("huge") {
		t.Error("sole over-budget entry must not evict itself")
	}

	// Unbounded: nothing is ever evicted.
	ub := NewMemo("unbounded", func(v int) int64 { return int64(v) })
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := ub.Do(context.Background(), key, func(context.Context) (int, error) { return 1 << 20, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if ev, _ := ub.EvictionStats(); ev != 0 {
		t.Errorf("unbounded memo evicted %d entries", ev)
	}
}
