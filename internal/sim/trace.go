package sim

// Trace-driven replay: the classic functional/timing split. One run of
// the fast stepper records everything the timing model consumed from the
// interpreter — the dynamic instruction stream (as runs of indices into
// a flat pre-decoded metadata table), resolved memory addresses with
// their shared-slot classification, iteration boundaries and statuses,
// and live-in/last-value register snapshots for verification. A Trace is
// immutable once finished; the replay engine (replay_batch.go) re-times
// it under any same-core-count Config without touching internal/interp.
//
// What a trace may depend on from sim.Config: Cores, and nothing else.
// The scheduling function (iteration -> core = iter mod n) and the loop
// stop protocol make the dynamic stream a function of core count, but
// the compiler is keyed by cores anyway; every other Config field (core
// model, memory, ring, decoupling, PerfectMem) only changes *when*
// events happen, never *which* events happen. The config-invariance test
// in replay_test.go pins this by recording the same run under different
// timing configs and requiring identical traces.

import (
	"context"

	"helixrc/internal/hcc"
	"helixrc/internal/ir"
)

// blockRun is a maximal run of consecutively executed instructions in
// the flat metadata table: metas[off : off+n].
type blockRun struct {
	off uint32
	n   uint32
}

// traceEvent is one top-level step of the recorded program: `runs`
// sequential-code runs (on core 0) followed, when loop >= 0, by one
// invocation of loops[loop].
type traceEvent struct {
	runs int32
	loop int32
}

// iterTrace is one scheduled loop iteration: its body's return status
// and how many blockRuns it consumed.
type iterTrace struct {
	status int32
	runs   int32
}

// regVal is a (register, value) snapshot pair, sorted for determinism.
type regVal struct {
	reg int32
	val int64
}

// loopTrace is one parallel-loop invocation.
type loopTrace struct {
	numSegs  int32
	numSlots int32
	numRegs  int32 // body register-file size (core scoreboard width)
	counted  bool
	iters    []iterTrace
	// liveIns snapshots the slot-broadcast values (sorted by slot) and
	// lastVals the final last-value registers (sorted by register). Replay
	// does not consume them — they exist so equivalence tests can compare
	// the functional state a trace captured, not just its timing stream.
	liveIns  []regVal
	lastVals []regVal
}

// Trace is the recorded dynamic behaviour of one simulated run. It is
// immutable after Record returns and safe to share across goroutines;
// replays only read it.
type Trace struct {
	cores    int
	maxRegs  int
	retValue int64
	instrs   int64

	metas  []instrMeta  // flat per-block decoded metadata
	runs   []blockRun   // dynamic stream as runs over metas
	addrs  []int64      // effective addresses of memory ops, in order
	slots  []uint64     // bitset parallel to addrs: shared register slot
	events []traceEvent // top-level seq-span / loop interleaving
	loops  []loopTrace
}

// Cores returns the core count the trace was recorded with. Traces of
// baseline runs (no parallel loops) replay under any core count; traces
// with loops only under this one.
func (t *Trace) Cores() int { return t.cores }

// Instrs returns the recorded dynamic instruction count.
func (t *Trace) Instrs() int64 { return t.instrs }

// sizes for SizeBytes; close enough for cache budgeting.
const (
	metaBytes = 64 // instrMeta + slice header overhead
	runBytes  = 8
	iterBytes = 8
	loopBytes = 96
)

// SizeBytes estimates the trace's memory footprint, for byte-budget
// cache eviction.
func (t *Trace) SizeBytes() int64 {
	n := int64(len(t.metas))*metaBytes +
		int64(len(t.runs))*runBytes +
		int64(len(t.addrs))*8 +
		int64(len(t.slots))*8 +
		int64(len(t.events))*8
	for i := range t.loops {
		lp := &t.loops[i]
		n += loopBytes + int64(len(lp.iters))*iterBytes +
			int64(len(lp.liveIns)+len(lp.lastVals))*16
	}
	return n + 256
}

// slotAt reports whether memory access i (index into addrs) was a
// shared register slot.
func (t *Trace) slotAt(i int) bool {
	w := i >> 6
	if w >= len(t.slots) {
		return false
	}
	return t.slots[w]&(1<<uint(i&63)) != 0
}

// recorder builds a Trace while the fast stepper runs. All hooks are
// no-ops in the timing model's eyes: they only append to flat slices.
type recorder struct {
	tr       Trace
	blockOff map[*ir.Block]uint32

	// open run [runOff, runOff+runN) not yet flushed to tr.runs.
	runOff uint32
	runN   uint32

	spanStart    int // tr.runs length at the current seq span's start
	iterRunStart int
}

func newRecorder() *recorder {
	return &recorder{blockOff: map[*ir.Block]uint32{}}
}

// baseFor returns the block's base offset in the flat metadata table,
// copying its decoded metadata on first touch.
func (rec *recorder) baseFor(b *ir.Block, meta []instrMeta) uint32 {
	if off, ok := rec.blockOff[b]; ok {
		return off
	}
	off := uint32(len(rec.tr.metas))
	rec.tr.metas = append(rec.tr.metas, meta...)
	rec.blockOff[b] = off
	return off
}

// note records execution of metas[base+idx], extending the open run when
// contiguous.
func (rec *recorder) note(base uint32, idx int) {
	off := base + uint32(idx)
	if rec.runN > 0 && rec.runOff+rec.runN == off {
		rec.runN++
		return
	}
	rec.flushRun()
	rec.runOff, rec.runN = off, 1
}

func (rec *recorder) flushRun() {
	if rec.runN > 0 {
		rec.tr.runs = append(rec.tr.runs, blockRun{off: rec.runOff, n: rec.runN})
		rec.runN = 0
	}
}

// addr records a memory op's effective address and whether it hit a
// shared register slot.
func (rec *recorder) addr(a int64, slot bool) {
	i := len(rec.tr.addrs)
	rec.tr.addrs = append(rec.tr.addrs, a)
	if slot {
		w := i >> 6
		for len(rec.tr.slots) <= w {
			rec.tr.slots = append(rec.tr.slots, 0)
		}
		rec.tr.slots[w] |= 1 << uint(i&63)
	}
}

// beginLoop closes the current sequential span and opens a loop record.
// liveIn reads the broadcast value of a shared register (ctx.Reg).
func (rec *recorder) beginLoop(pl *hcc.ParallelLoop, liveIn func(ir.Reg) int64) {
	rec.flushRun()
	rec.tr.events = append(rec.tr.events, traceEvent{
		runs: int32(len(rec.tr.runs) - rec.spanStart),
		loop: int32(len(rec.tr.loops)),
	})
	lt := loopTrace{
		numSegs:  int32(pl.NumSegs),
		numSlots: int32(len(pl.SlotOf)),
		numRegs:  int32(pl.Body.NumRegs),
		counted:  pl.Counted,
	}
	for reg, slot := range pl.SlotOf {
		lt.liveIns = append(lt.liveIns, regVal{reg: int32(slot), val: liveIn(reg)})
	}
	sortRegVals(lt.liveIns)
	rec.tr.loops = append(rec.tr.loops, lt)
	rec.spanStart = len(rec.tr.runs)
}

func (rec *recorder) beginIter() {
	rec.flushRun()
	rec.iterRunStart = len(rec.tr.runs)
}

func (rec *recorder) endIter(status int64) {
	rec.flushRun()
	lt := &rec.tr.loops[len(rec.tr.loops)-1]
	lt.iters = append(lt.iters, iterTrace{
		status: int32(status),
		runs:   int32(len(rec.tr.runs) - rec.iterRunStart),
	})
}

// endLoop snapshots the loop's final last-value registers and reopens a
// sequential span.
func (rec *recorder) endLoop(lastVals map[ir.Reg]lastValRec) {
	rec.flushRun()
	lt := &rec.tr.loops[len(rec.tr.loops)-1]
	for reg, lv := range lastVals {
		lt.lastVals = append(lt.lastVals, regVal{reg: int32(reg), val: lv.val})
	}
	sortRegVals(lt.lastVals)
	rec.spanStart = len(rec.tr.runs)
}

// finish closes the trailing sequential span and seals the trace. The
// Trace is returned by value-copy so that caching it does not keep the
// recorder (and its per-block offset map) alive.
func (rec *recorder) finish(cores, maxRegs int, res *Result) *Trace {
	rec.flushRun()
	rec.tr.events = append(rec.tr.events, traceEvent{
		runs: int32(len(rec.tr.runs) - rec.spanStart),
		loop: -1,
	})
	rec.tr.cores = cores
	rec.tr.maxRegs = maxRegs
	rec.tr.retValue = res.RetValue
	rec.tr.instrs = res.Instrs
	tr := rec.tr
	return &tr
}

func sortRegVals(rv []regVal) {
	// Insertion sort: the snapshots are tiny (a handful of registers).
	for i := 1; i < len(rv); i++ {
		for j := i; j > 0 && rv[j].reg < rv[j-1].reg; j-- {
			rv[j], rv[j-1] = rv[j-1], rv[j]
		}
	}
}

// Record runs entry(args...) exactly like Run on the fast path while
// recording a Trace of the dynamic behaviour. The returned Result is
// bit-identical to Run's; the Trace replays under any Config with the
// same core count (or any core count for baseline traces) via Replay.
// Errors abort without a trace.
func Record(ctx context.Context, prog *ir.Program, comp *hcc.Compiled, entry *ir.Function, arch Config, args ...int64) (*Result, *Trace, error) {
	if arch.Cores <= 0 {
		arch.Cores = 16
	}
	rec := newRecorder()
	res, maxRegs, err := run(ctx, prog, comp, entry, arch, false, rec, args)
	if err != nil {
		return res, nil, err
	}
	return res, rec.finish(arch.Cores, maxRegs, res), nil
}
