// Package artifact is the content-addressed artifact store behind the
// harness caches: a generic two-tier store combining an in-memory
// singleflight LRU (Memo, the memory tier) with an optional on-disk
// tier of checksummed, versioned entries (Store). Keys are
// content-derived strings — stable fingerprints of the inputs that
// produced an artifact — so a disk entry written by one process is
// valid in any later process that derives the same key.
package artifact

import (
	"context"
	"errors"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"
)

// pkgLogger is the injectable destination for store diagnostics (cache
// evictions today). nil means the default stderr logger.
var pkgLogger atomic.Pointer[log.Logger]

// SetLogger routes store diagnostics (eviction notices and other
// non-fatal events) to l. nil restores the default stderr logger; pass
// log.New(io.Discard, "", 0) to silence the package.
func SetLogger(l *log.Logger) { pkgLogger.Store(l) }

// SetQuiet discards all store diagnostics.
func SetQuiet() { SetLogger(log.New(io.Discard, "", 0)) }

// defaultLogger is the stderr logger used when none is injected.
var defaultLogger = log.New(os.Stderr, "", log.LstdFlags)

// logf writes one diagnostic line through the injected logger.
func logf(format string, args ...any) {
	l := pkgLogger.Load()
	if l == nil {
		l = defaultLogger
	}
	l.Printf(format, args...)
}

// memoCall is one in-flight or completed memoized computation. Completed
// successful entries are threaded on the memo's intrusive LRU list.
type memoCall[V any] struct {
	done   chan struct{}
	val    V
	err    error
	cancel context.CancelFunc // cancels the computation's context

	key        string
	waiters    int // guarded by g.mu; last detaching waiter cancels
	cost       int64
	prev, next *memoCall[V]
	linked     bool
}

// Memo is a concurrency-safe memoization table with singleflight
// semantics: concurrent Do calls for the same key share one execution,
// and completed results (including errors) are cached until Reset. It
// is the memory tier of a Store, and usable on its own; the zero value
// is ready to use (unbounded, unnamed).
//
// Cancellation never poisons the cache. The computation runs on its own
// goroutine under a context detached from any single caller, so a
// cancelled waiter simply stops waiting while the in-flight entry keeps
// serving everyone else. Only when the last waiter detaches is the
// computation's context cancelled and the entry dropped, and a
// computation that returns a context error is never cached — the next
// caller recomputes from scratch.
//
// When a cost function and a byte budget are configured, completed
// successful entries additionally form an LRU: once their summed cost
// exceeds the budget, least-recently-used entries are dropped (and
// logged, so silent cache misses are visible). The most recent entry is
// never evicted, so a single over-budget result still serves its
// waiters and the next hit. In-flight computations and cached errors
// carry no cost and are never evicted.
type Memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoCall[V]

	name   string        // label for eviction log lines
	cost   func(V) int64 // nil disables budget accounting
	budget int64         // <= 0 means unbounded
	used   int64
	head   *memoCall[V] // most recently used
	tail   *memoCall[V] // least recently used

	evictions    atomic.Int64
	evictedBytes atomic.Int64
}

// NewMemo returns a Memo labeled name (for eviction log lines) with the
// given cost estimator (nil disables budget accounting).
func NewMemo[V any](name string, cost func(V) int64) *Memo[V] {
	return &Memo[V]{name: name, cost: cost}
}

// Do returns the memoized result for key, computing it with fn exactly
// once per Reset no matter how many goroutines ask concurrently. The
// wait is bounded by ctx: a cancelled waiter detaches with ctx.Err()
// while the computation keeps running for the remaining waiters. fn
// receives the computation's own context, which is cancelled only when
// every waiter has detached.
func (g *Memo[V]) Do(ctx context.Context, key string, fn func(ctx context.Context) (V, error)) (V, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*memoCall[V]{}
	}
	c, ok := g.m[key]
	if ok {
		if c.linked {
			g.moveToFront(c)
		}
	} else {
		// The computation's context survives this caller: derived from
		// ctx for its values only, cancelled by the last detaching
		// waiter rather than by any one caller's cancellation.
		cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c = &memoCall[V]{done: make(chan struct{}), key: key, cancel: cancel}
		g.m[key] = c
		go g.compute(c, cctx, fn)
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		g.mu.Lock()
		c.waiters--
		g.mu.Unlock()
		return c.val, c.err
	case <-ctx.Done():
		g.detach(c)
		var zero V
		return zero, ctx.Err()
	}
}

// compute runs one memoized computation to completion and publishes the
// result: successes are cached (and LRU-accounted), context errors are
// dropped so an abandoned or reaped computation never poisons the key,
// and other errors stay cached until Reset. The waiters are released
// only after the accounting, under g.mu, so when Do returns the entry
// is already charged and the memo already evicted down to its budget.
func (g *Memo[V]) compute(c *memoCall[V], cctx context.Context, fn func(ctx context.Context) (V, error)) {
	c.val, c.err = fn(cctx)
	c.cancel()

	g.mu.Lock()
	// Only account the entry if it is still the table's (a concurrent
	// Reset — or the last waiter detaching — may have dropped it).
	if g.m[c.key] == c {
		switch {
		case c.err != nil && (errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)):
			delete(g.m, c.key)
		case c.err == nil && g.cost != nil:
			c.cost = g.cost(c.val)
			g.used += c.cost
			g.linkFront(c)
			g.evict()
		}
	}
	close(c.done)
	g.mu.Unlock()
}

// detach removes one cancelled waiter from an entry. When the last
// waiter of a still-running computation detaches, the computation's
// context is cancelled (so a stuck cell is reaped) and the entry is
// dropped from the table so later callers start a fresh computation
// instead of joining a dying one.
func (g *Memo[V]) detach(c *memoCall[V]) {
	g.mu.Lock()
	c.waiters--
	if c.waiters == 0 {
		select {
		case <-c.done:
			// Already finished; compute published the result.
		default:
			if g.m[c.key] == c {
				delete(g.m, c.key)
			}
			g.mu.Unlock()
			c.cancel()
			return
		}
	}
	g.mu.Unlock()
}

func (g *Memo[V]) linkFront(c *memoCall[V]) {
	c.linked = true
	c.prev = nil
	c.next = g.head
	if g.head != nil {
		g.head.prev = c
	}
	g.head = c
	if g.tail == nil {
		g.tail = c
	}
}

func (g *Memo[V]) unlink(c *memoCall[V]) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		g.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		g.tail = c.prev
	}
	c.prev, c.next, c.linked = nil, nil, false
}

func (g *Memo[V]) moveToFront(c *memoCall[V]) {
	if g.head == c {
		return
	}
	g.unlink(c)
	g.linkFront(c)
}

// evict drops LRU entries until the memo fits its budget, keeping at
// least the most recent entry. Caller holds g.mu.
func (g *Memo[V]) evict() {
	for g.budget > 0 && g.used > g.budget && g.tail != nil && g.tail != g.head {
		t := g.tail
		g.unlink(t)
		delete(g.m, t.key)
		g.used -= t.cost
		g.evictions.Add(1)
		g.evictedBytes.Add(t.cost)
		logf("artifact: %s cache evicted %s (%d KB, %d/%d KB in use)",
			g.name, t.key, t.cost>>10, g.used>>10, g.budget>>10)
	}
}

// SetBudget installs a byte budget (<= 0 for unbounded) and evicts down
// to it immediately.
func (g *Memo[V]) SetBudget(b int64) {
	g.mu.Lock()
	g.budget = b
	g.evict()
	g.mu.Unlock()
}

// EvictionStats returns the cumulative eviction count and evicted bytes.
func (g *Memo[V]) EvictionStats() (evictions, evictedBytes int64) {
	return g.evictions.Load(), g.evictedBytes.Load()
}

// Add publishes an already-computed value for key without running a
// computation, returning whether it was inserted. An existing entry —
// completed or in-flight — is never clobbered: batched producers may
// race with singleflight computations of the same key, and whichever
// published first wins (both computed the same content-addressed
// value). Inserted entries join the LRU exactly like computed ones.
func (g *Memo[V]) Add(key string, v V) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = map[string]*memoCall[V]{}
	}
	if _, ok := g.m[key]; ok {
		return false
	}
	done := make(chan struct{})
	close(done)
	c := &memoCall[V]{done: done, val: v, key: key, cancel: func() {}}
	g.m[key] = c
	if g.cost != nil {
		c.cost = g.cost(v)
		g.used += c.cost
		g.linkFront(c)
		g.evict()
	}
	return true
}

// Peek returns the completed value cached for key without computing or
// waiting. In-flight computations and cached errors report a miss. A
// hit refreshes the entry's LRU position.
func (g *Memo[V]) Peek(key string) (V, bool) {
	var zero V
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.m[key]
	if !ok {
		return zero, false
	}
	select {
	case <-c.done:
	default:
		return zero, false
	}
	if c.err != nil {
		return zero, false
	}
	if c.linked {
		g.moveToFront(c)
	}
	return c.val, true
}

// Reset drops all memoized results. In-flight computations complete
// normally for their waiters but are not re-used afterwards. Eviction
// counters are cumulative and survive resets.
func (g *Memo[V]) Reset() {
	g.mu.Lock()
	g.m = nil
	g.head, g.tail = nil, nil
	g.used = 0
	g.mu.Unlock()
}
