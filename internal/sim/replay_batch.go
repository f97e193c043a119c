package sim

// The replay engine: one traversal of a recorded Trace re-times it under
// N configurations, with no functional execution at all. Replay is its
// one-lane case. The traversal — cursors, iteration scheduling, segment
// scratch — is driven by the recorded stream alone, so it is shared.
// The replayer also owns every piece of state that depends only on the
// trace and on config fields a group of lanes has in common, and
// updates it once per instruction, before the per-lane loop:
//
//   - one memory hierarchy per memory group (memGroup), accessed once
//     per memory instruction; its lanes read the latency;
//   - one set of ring arrays per array group (arrayGroup), updated once
//     per shared access the group's rings carry; its lanes time the
//     access against the outcome;
//   - sequential spans, timed by one lane per class (laneClass), whose
//     other members add the span's duration to their own clock;
//   - the stream counters (streamCounts), added to a lane's Result when
//     it freezes or the walk ends.
//
// A lane keeps only what differs between lanes: scoreboards, clocks,
// its ring's injection and signal times, and its overhead cycles. Every
// timing expression mirrors the fast stepper (fast.go), and therefore
// the reference stepper.
//
// Each lane's (Result, error) is bit-identical to a fresh Run under its
// config, failure paths included. Budget checks sit where the steppers
// put them (before every dynamic instruction and each loop dispatch), so
// a lane whose MaxSteps runs out freezes at Run's instruction with Run's
// partial Result while the others keep going, and context polls stay on
// the steppers' ctxCheckEvery grid. replay_batch_test.go pins every lane
// against Run.
//
// Replayers are pooled: a lane slot keeps its scoreboards while its core
// model is unchanged and its timing ring while its ring configuration
// is, and hierarchies and ring arrays come from pools keyed by shape, so
// a steady-state call allocates only its Results. Every timing field is
// reset per call and every pooled structure per loop, so reuse can never
// change a cycle count.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"helixrc/internal/cpu"
	"helixrc/internal/ir"
	memsys "helixrc/internal/mem"
	"helixrc/internal/ringcache"
)

var (
	// errBatchDone is an internal sentinel: every lane has frozen, so the
	// traversal can stop early. It never escapes to callers.
	errBatchDone = errors.New("sim: batch drained")
	// errIterStream reports a loop whose recorded iterations do not match
	// its round-robin schedule: too few, or some left over once every
	// core has stopped. A recorded trace always matches.
	errIterStream = errors.New("sim: replay iteration stream does not match the loop (trace/config mismatch)")
)

// Replay simulates the timing of a recorded run under arch. The trace
// fixes the dynamic behaviour, so arch must agree with the recording
// config on everything that shapes it: the core count (unless the trace
// has no parallel loops, which makes it core-count independent) — and
// implicitly the compiled program, which the caller keys the trace by.
//
// Like Run, Replay polls ctx on the step-accounting path and returns
// ctx.Err() with the partial Result when cancelled. It is ReplayBatch
// over one lane and allocates only the returned Result.
func Replay(ctx context.Context, tr *Trace, arch Config) (*Result, error) {
	archs := [1]Config{arch}
	var results [1]*Result
	var errs [1]error
	replayInto(ctx, tr, archs[:], results[:], errs[:])
	return results[0], errs[0]
}

// ReplayBatch re-times tr under every config in archs with a single
// trace traversal, returning per-config Results and errors (both
// indexed like archs). Each (Result, error) pair is what Replay(ctx, tr,
// archs[i]) returns: invalid configs get a nil Result and a validation
// error; configs whose MaxSteps runs out mid-trace get ErrBudget with
// the truncated partial Result; a context cancellation freezes every
// still-live lane with ctx.Err(). Because the traversal is shared, all
// valid configs must agree on the core count; a dissenting config gets
// Replay's core-count mismatch error.
func ReplayBatch(ctx context.Context, tr *Trace, archs []Config) ([]*Result, []error) {
	results := make([]*Result, len(archs))
	errs := make([]error, len(archs))
	replayInto(ctx, tr, archs, results, errs)
	return results, errs
}

// replayInto is the engine behind Replay and ReplayBatch: it fills the
// caller's results and errs slots (indexed like archs) from a pooled
// replayer.
func replayInto(ctx context.Context, tr *Trace, archs []Config, results []*Result, errs []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, _ := replayerPool.Get().(*batchReplayer)
	if b == nil {
		b = &batchReplayer{}
	}
	b.ctx, b.tr = ctx, tr
	b.cores, b.steps, b.check = 0, 0, 0
	b.runCursor, b.addrCursor = 0, 0
	b.stream = streamCounts{}

	lanes := b.lanes[:0]
	for i, arch := range archs {
		if arch.Cores <= 0 {
			arch.Cores = 16
		}
		// A loop trace fixes the core count; a baseline trace takes the
		// first valid lane's, because the lanes share one traversal.
		want := b.cores
		if len(tr.loops) > 0 {
			want = tr.cores
		}
		if want != 0 && arch.Cores != want {
			errs[i] = fmt.Errorf("sim: trace recorded with %d cores cannot replay with %d", want, arch.Cores)
			continue
		}
		b.cores = arch.Cores
		if len(lanes) < cap(lanes) {
			lanes = lanes[:len(lanes)+1]
		} else {
			lanes = append(lanes, batchLane{})
		}
		lanes[len(lanes)-1].reset(i, arch)
	}
	b.lanes = lanes
	if len(lanes) > 0 {
		b.group()
		b.run()
		for li := range lanes {
			ln := &lanes[li]
			r := ln.res
			results[ln.idx] = &r
			errs[ln.idx] = ln.err
		}
	}
	b.release()
}

// replayerPool recycles replayers, lane slots included, across calls.
var replayerPool sync.Pool

// ringConfig resolves the ring configuration a replay of arch uses for
// all its loops.
func ringConfig(arch Config) ringcache.Config {
	rc := arch.Ring
	rc.Nodes = arch.Cores
	if arch.PerfectMem {
		rc.LinkLatency, rc.InjectLatency, rc.OwnerL1Latency = 0, 0, 0
		rc.DataBandwidth, rc.SignalBandwidth = 0, 0
		rc.ArrayBytes = 0
	}
	return rc
}

// batchLane is one config's timing state: scoreboards, clocks, its
// ring's injection and signal times, and its overhead cycles. Everything
// it shares with other lanes lives in the replayer.
type batchLane struct {
	idx  int // position in the caller's archs slice
	arch Config

	maxSteps int64
	now      int64 // sequential clock (core 0)
	t        int64 // current iteration's core clock, within a loop
	start    int64 // current loop's startup time
	res      Result
	err      error

	seqCore  *cpu.Core // core 0's scoreboard, used while the lane times its class
	core     *cpu.Core // the core running the current iteration
	parCores []*cpu.Core
	coreTime []int64
	ringCfg  ringcache.Config
	ringBuf  *ringcache.Ring // the slot's one timing ring, reset for every loop
	ring     *ringcache.Ring // active loop's ring (nil on conventional lanes)
	convSig  []int64

	mem   *memGroup   // nil for PerfectMem lanes, which have no hierarchy
	arr   *arrayGroup // nil unless the lane's ring carries shared accesses
	class *laneClass

	inOrder             bool
	route               routing
	decSync             bool
	c2c, l1, branchCost int64
}

// reset points a lane slot at arch for one replay. Every timing field
// starts fresh; the scoreboards survive while the core model is
// unchanged and the ring while the ring configuration is.
func (ln *batchLane) reset(idx int, arch Config) {
	if arch.Core != ln.arch.Core {
		ln.seqCore = nil
		clear(ln.parCores)
	}
	if rc := ringConfig(arch); rc != ln.ringCfg {
		ln.ringCfg, ln.ringBuf = rc, nil
	}
	ln.idx, ln.arch = idx, arch
	ln.core, ln.ring = nil, nil
	ln.maxSteps = arch.effectiveMaxSteps()
	ln.now, ln.t, ln.start = 0, 0, 0
	ln.res, ln.err = Result{}, nil
	ln.mem, ln.arr, ln.class = nil, nil, nil
	ln.inOrder = !arch.Core.OoO
	ln.route, ln.decSync = routing{arch.DecoupleReg, arch.DecoupleMem}, arch.DecoupleSync
	ln.c2c, ln.l1 = int64(arch.Mem.CacheToCache), int64(arch.Mem.L1Latency)
	if arch.PerfectMem {
		ln.c2c = 0
	}
	ln.branchCost = int64(arch.Core.BranchCost)
}

// anyDec reports whether the lane's loops run with a ring at all.
func (ln *batchLane) anyDec() bool { return ln.route.decReg || ln.route.decMem || ln.decSync }

// memLat is the latency of the memory access being processed: its
// group's, or a single cycle under perfect memory.
func (ln *batchLane) memLat() int64 {
	if ln.mem == nil {
		return 1
	}
	return ln.mem.lat
}

// issue issues one instruction on core under the lane's core model and
// returns its issue time. The in-order rule, which most lanes use, is
// inlined here.
func (ln *batchLane) issue(core *cpu.Core, dst ir.Reg, now, opReady, lat int64) int64 {
	if ln.inOrder {
		return core.IssueInOrder(dst, now, opReady, lat)
	}
	t, _ := core.IssueReg(dst, now, opReady, lat)
	return t
}

// advance moves the lane's iteration clock past an instruction issued
// at issue.
func (ln *batchLane) advance(issue int64, branches bool) {
	ln.t = issue
	if branches {
		ln.t += ln.branchCost
	}
}

func (ln *batchLane) ensurePerCore(n int) {
	if len(ln.parCores) >= n {
		return
	}
	ln.parCores = make([]*cpu.Core, n)
	ln.coreTime = make([]int64, n)
}

func (ln *batchLane) convBuf(n int) {
	if cap(ln.convSig) < n {
		ln.convSig = make([]int64, n)
	} else {
		ln.convSig = ln.convSig[:n]
		clear(ln.convSig)
	}
}

// ringFor returns the slot's timing ring reset for a loop of numSegs
// segments.
func (ln *batchLane) ringFor(numSegs int) *ringcache.Ring {
	if ln.ringBuf == nil {
		ln.ringBuf = ringcache.NewTiming(ln.ringCfg, numSegs)
	} else {
		ln.ringBuf.Reset(numSegs)
	}
	return ln.ringBuf
}

// routing is which shared accesses a lane's ring carries, when it has
// one: register-slot accesses (DecoupleReg), other shared words
// (DecoupleMem), or both.
type routing struct{ decReg, decMem bool }

// carries reports whether a ring with this routing absorbs a shared
// access to a register slot (slot) or to any other shared word.
func (r routing) carries(slot bool) bool {
	if slot {
		return r.decReg
	}
	return r.decMem
}

// memProfile identifies lanes whose hierarchy access sequences (and
// therefore latencies and stats) are provably identical: same memory
// config, and the same shared-access routing — whether a ring exists at
// all, and which access kinds it absorbs. Ring parameters and the core
// model shift timing, never the access stream, so they stay out.
type memProfile struct {
	mem    memsys.Config
	anyDec bool
	route  routing
}

// ringCarries reports whether the profile's lanes send a shared access
// to their rings instead of the hierarchy.
func (p memProfile) ringCarries(slot bool) bool { return p.anyDec && p.route.carries(slot) }

// memGroup is the hierarchy of every lane with one memProfile. The
// replayer accesses it once per memory instruction that the group
// routes to it, while the group has a live lane, and its lanes read lat.
type memGroup struct {
	prof memProfile
	hier *memsys.Hierarchy
	live int   // live lanes in the group
	lat  int64 // latency of the access being processed
}

// arrayGroup holds the ring arrays of every lane whose rings have one
// shape (node count, array bytes, associativity) and carry the same
// shared accesses. Every store circulates to every node (§5), so what
// the arrays hold follows from the access stream alone: link latency
// and bandwidths only move times. The replayer updates the arrays once
// per access the group carries, while the group has a live lane, and
// its lanes time the access against present and evictions.
type arrayGroup struct {
	shape  ringcache.Config
	route  routing
	arrays *ringcache.Arrays
	live   int

	present   bool  // the access being processed found its word (loads)
	evictions int64 // dirty words the access evicted
}

// arrayShape is the part of a ring configuration its arrays depend on.
func arrayShape(rc ringcache.Config) ringcache.Config {
	shape := ringcache.Config{Nodes: rc.Nodes, ArrayBytes: rc.ArrayBytes, Assoc: rc.Assoc}
	if shape.ArrayBytes <= 0 {
		shape.ArrayBytes, shape.Assoc = 0, 0 // unbounded: presence sets
	}
	return shape
}

// laneClass is the lanes with one core model and one memory group (or
// perfect memory). A lane's sequential core restarts at its own clock,
// at the start of the walk and after every loop, and every timing rule
// is a max or a sum of times and constants, so the members' sequential
// spans differ only by a shift. The timer, the member with the largest
// step budget, times each span; the others add its duration to their
// clocks. The timer freezes last, so a class never changes timer.
type laneClass struct {
	core  cpu.Config
	mem   *memGroup
	timer *batchLane
	t0    int64 // the timer's clock at the current span's start
}

// streamCounts are the Result counters that follow from the trace
// alone, counted once per traversal instead of once per lane.
type streamCounts struct {
	instrs, parallelInstrs, seqSegInstrs       int64
	addedInstr, waitSignal                     int64
	segEntries, iterationsRun, loopInvocations int64
}

// addTo adds the counts so far to a lane's Result: when the lane
// freezes, which gives Run's partial counts, or when the walk ends.
func (s *streamCounts) addTo(r *Result) {
	r.Instrs += s.instrs
	r.ParallelInstrs += s.parallelInstrs
	r.SeqSegInstrs += s.seqSegInstrs
	r.Overheads.AddedInstr += s.addedInstr
	r.Overheads.WaitSignal += s.waitSignal
	r.SegEntries += s.segEntries
	r.IterationsRun += s.iterationsRun
	r.LoopInvocations += s.loopInvocations
}

// batchReplayer walks the trace once for all lanes. The stream-driven
// state (cursors, step count, iteration scheduling, segment scratch,
// stream counters) and the state lanes share (memory and array groups,
// classes) are its own; live holds the lanes still being advanced, in
// stable order.
type batchReplayer struct {
	ctx   context.Context
	tr    *Trace
	cores int

	steps int64
	check int64 // next steps value at which sharedCheck must run

	runCursor  int
	addrCursor int
	stream     streamCounts

	lanes []batchLane  // this call's lanes; pooled slots beyond len
	live  []*batchLane // still-advancing lanes, in stable lane order

	mems    []memGroup
	arrs    []arrayGroup
	classes []laneClass

	ranReal []bool
	stopped []bool
	scr     segScratch
}

// reserve returns s emptied with room for n elements, so that appending
// up to n never moves it and pointers into it stay valid.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// group fills live with every lane and sorts the lanes into memory
// groups, array groups and classes, drawing each group's hierarchy and
// arrays from their pools and giving each class timer a sequential
// core. There is at most one group and one class per lane, so the
// reserved slices never move while lanes point into them.
func (b *batchReplayer) group() {
	n := len(b.lanes)
	b.mems, b.arrs, b.classes = reserve(b.mems, n), reserve(b.arrs, n), reserve(b.classes, n)
	for li := range b.lanes {
		ln := &b.lanes[li]
		b.live = append(b.live, ln)
		if !ln.arch.PerfectMem {
			p := memProfile{mem: ln.arch.Mem, anyDec: ln.anyDec(), route: ln.route}
			for gi := range b.mems {
				if b.mems[gi].prof == p {
					ln.mem = &b.mems[gi]
					break
				}
			}
			if ln.mem == nil {
				b.mems = append(b.mems, memGroup{prof: p, hier: hierFromPool(b.cores, p.mem)})
				ln.mem = &b.mems[len(b.mems)-1]
			}
			ln.mem.live++
		}
		if ln.route != (routing{}) {
			shape := arrayShape(ln.ringCfg)
			for gi := range b.arrs {
				if g := &b.arrs[gi]; g.shape == shape && g.route == ln.route {
					ln.arr = g
					break
				}
			}
			if ln.arr == nil {
				arrays, ok := arrayPools.get(shape)
				if !ok {
					arrays = ringcache.NewArrays(shape)
				}
				b.arrs = append(b.arrs, arrayGroup{shape: shape, route: ln.route, arrays: arrays})
				ln.arr = &b.arrs[len(b.arrs)-1]
			}
			ln.arr.live++
		}
		for ci := range b.classes {
			if cl := &b.classes[ci]; cl.core == ln.arch.Core && cl.mem == ln.mem {
				ln.class = cl
				break
			}
		}
		if ln.class == nil {
			b.classes = append(b.classes, laneClass{core: ln.arch.Core, mem: ln.mem, timer: ln})
			ln.class = &b.classes[len(b.classes)-1]
		} else if ln.maxSteps > ln.class.timer.maxSteps {
			ln.class.timer = ln
		}
	}
	for ci := range b.classes {
		tm := b.classes[ci].timer
		if tm.seqCore == nil {
			tm.seqCore = cpu.NewCore(tm.arch.Core, b.tr.maxRegs)
		} else {
			tm.seqCore.Grow(b.tr.maxRegs)
		}
		tm.seqCore.Reset(0)
	}
}

// release returns the groups' hierarchies and arrays to their pools and
// parks the replayer for reuse. A parked replayer keeps one set of
// scoreboards and one timing ring per lane of its last call, never
// slots a larger earlier call left behind: a replayer that stays hot
// would otherwise carry them indefinitely. Lane rings hold no arrays, so
// the large state (Figure 11d's 32 KB node arrays make 2 MB at 16 cores)
// is the pools'. Dropping the other references keeps it from pinning a
// trace, a context or an error.
func (b *batchReplayer) release() {
	for gi := range b.mems {
		hierToPool(b.mems[gi].hier, b.cores, b.mems[gi].prof.mem)
	}
	for gi := range b.arrs {
		arrayPools.put(b.arrs[gi].shape, b.arrs[gi].arrays)
	}
	clear(b.mems[:cap(b.mems)])
	clear(b.arrs[:cap(b.arrs)])
	clear(b.classes[:cap(b.classes)])
	b.mems, b.arrs, b.classes = b.mems[:0], b.arrs[:0], b.classes[:0]
	clear(b.lanes[len(b.lanes):cap(b.lanes)])
	b.ctx, b.tr = nil, nil
	clear(b.live[:cap(b.live)])
	b.live = b.live[:0]
	for li := range b.lanes {
		ln := &b.lanes[li]
		ln.err, ln.mem, ln.arr, ln.class = nil, nil, nil, nil
	}
	replayerPool.Put(b)
}

// arrayPools pools ring arrays by shape, as hierPools does
// hierarchies; the replayer resets them at every loop start.
var arrayPools shapePool[ringcache.Config, *ringcache.Arrays]

// freeze retires live[i]: the lane keeps its partial Result exactly as
// Run's error return would (the stream counts so far, no Cycles, no
// memory stats), and stops being advanced. Its groups stop counting it;
// a group with no live lane left is no longer updated.
func (b *batchReplayer) freeze(i int, err error) {
	ln := b.live[i]
	ln.err = err
	b.stream.addTo(&ln.res)
	b.live = append(b.live[:i], b.live[i+1:]...)
	if ln.mem != nil {
		ln.mem.live--
	}
	if ln.arr != nil {
		ln.arr.live--
	}
}

// freezeAll retires every live lane with err and returns err so the
// traversal aborts.
func (b *batchReplayer) freezeAll(err error) error {
	for len(b.live) > 0 {
		b.freeze(0, err)
	}
	return err
}

// sharedCheck is the batch form of runner.checkStep, entered when steps
// crosses the precomputed bound. Per-lane budget exhaustion is tested
// before the context poll (checkStep's order), and the poll happens
// only on the steppers' grid — multiples of ctxCheckEvery — so
// cancellation is observed at the same stream positions Run observes it.
func (b *batchReplayer) sharedCheck() error {
	for i := 0; i < len(b.live); {
		if b.steps >= b.live[i].maxSteps {
			b.freeze(i, ErrBudget)
			continue // freeze shifted live[i+1:] down
		}
		i++
	}
	if len(b.live) == 0 {
		return errBatchDone
	}
	if b.steps%ctxCheckEvery == 0 {
		if err := b.ctx.Err(); err != nil {
			return b.freezeAll(err)
		}
	}
	// Next stop: the next grid point, or the earliest live budget.
	next := (b.steps/ctxCheckEvery + 1) * ctxCheckEvery
	for _, ln := range b.live {
		if ln.maxSteps < next {
			next = ln.maxSteps
		}
	}
	b.check = next
	return nil
}

// access performs one hierarchy access for every memory group with a
// live lane.
func (b *batchReplayer) access(c int, addr int64, write bool) {
	for gi := range b.mems {
		if g := &b.mems[gi]; g.live > 0 {
			g.lat = int64(g.hier.Access(c, addr, write))
		}
	}
}

// accessShared performs one shared access for every group with a live
// lane: on the hierarchy of each memory group that does not route it to
// a ring, and on the arrays of each array group whose rings carry it.
func (b *batchReplayer) accessShared(c int, addr int64, write, slot bool) {
	for gi := range b.mems {
		if g := &b.mems[gi]; g.live > 0 && !g.prof.ringCarries(slot) {
			g.lat = int64(g.hier.Access(c, addr, write))
		}
	}
	for gi := range b.arrs {
		g := &b.arrs[gi]
		if g.live == 0 || !g.route.carries(slot) {
			continue
		}
		if write {
			g.evictions = g.arrays.Store(c, addr)
		} else {
			g.present, g.evictions = g.arrays.Load(c, addr)
		}
	}
}

// run walks the whole trace, mirroring runSequential: sequential spans
// on core 0, each followed by at most one loop invocation.
func (b *batchReplayer) run() {
	tr := b.tr
	for _, ev := range tr.events {
		if err := b.seqSpan(int(ev.runs)); err != nil {
			return
		}
		if ev.loop >= 0 {
			// The stepper's top-of-loop budget check fires once on the
			// loop-header dispatch.
			if b.steps >= b.check {
				if err := b.sharedCheck(); err != nil {
					return
				}
			}
			if err := b.replayLoop(&tr.loops[ev.loop]); err != nil {
				return
			}
		}
	}
	for _, ln := range b.live {
		ln.now++ // last instructions draining, as in runSequential
		ln.res.Cycles = ln.now
		ln.res.RetValue = tr.retValue
		b.stream.addTo(&ln.res)
		if ln.mem != nil {
			ln.res.Mem = ln.mem.hier.Stats
		}
	}
}

// seqSpan replays nruns block-runs of sequential code, mirroring
// runSequentialFast: each class timer times them on its core 0, and
// every other live lane then adds its timer's span duration to its own
// clock. Spans with no loop between them continue one timed sequence,
// and the shift between a member and its timer holds across them.
func (b *batchReplayer) seqSpan(nruns int) error {
	tr := b.tr
	for ci := range b.classes {
		cl := &b.classes[ci]
		cl.t0 = cl.timer.now
	}
	for k := 0; k < nruns; k++ {
		run := tr.runs[b.runCursor]
		b.runCursor++
		for off := run.off; off < run.off+run.n; off++ {
			if b.steps >= b.check {
				if err := b.sharedCheck(); err != nil {
					return err
				}
			}
			m := &tr.metas[off]
			isMem := m.cls == clsShared || m.cls == clsPriv
			if isMem {
				b.access(0, tr.addrs[b.addrCursor], m.isStore)
				b.addrCursor++
			}
			for ci := range b.classes {
				ln := b.classes[ci].timer
				if ln.err != nil {
					continue // frozen, and so is the rest of its class
				}
				lat := m.lat
				if isMem {
					lat = ln.memLat()
				}
				core := ln.seqCore
				issue := ln.issue(core, m.dst, ln.now, metaReady(core, m), lat)
				if m.branches {
					ln.now = issue + ln.branchCost
				} else {
					ln.now = issue
				}
			}
			b.stream.instrs++
			b.steps++
		}
	}
	for _, ln := range b.live {
		if cl := ln.class; cl.timer != ln {
			ln.now += cl.timer.now - cl.t0
		}
	}
	return nil
}

// replayLoop mirrors runLoop's timing: startup, round-robin scheduling
// driven by the recorded iteration statuses, drain, flush.
func (b *batchReplayer) replayLoop(lt *loopTrace) error {
	n := b.cores
	numSegs := int(lt.numSegs)

	b.stream.loopInvocations++
	for gi := range b.arrs {
		if g := &b.arrs[gi]; g.live > 0 {
			g.arrays.Reset()
		}
	}
	for _, ln := range b.live {
		// Startup: thread wake + one broadcast store (2 cycles) per
		// live-in slot. The stores themselves are functional and already
		// in the past.
		ln.start = ln.now + 12 + int64(n)/2 + 2*int64(lt.numSlots)
		ln.ensurePerCore(n)
		for c := 0; c < n; c++ {
			if ln.parCores[c] == nil {
				ln.parCores[c] = cpu.NewCore(ln.arch.Core, int(lt.numRegs))
			} else {
				ln.parCores[c].Grow(int(lt.numRegs))
			}
			ln.parCores[c].Reset(ln.start)
			ln.coreTime[c] = ln.start
		}
		ln.ring = nil
		if ln.anyDec() {
			ln.ring = ln.ringFor(numSegs)
		}
		ln.convBuf(numSegs)
	}
	if len(b.ranReal) < n {
		b.ranReal = make([]bool, n)
		b.stopped = make([]bool, n)
	}
	for c := 0; c < n; c++ {
		b.ranReal[c] = false
		b.stopped[c] = false
	}
	b.scr.ensure(numSegs)

	stoppedCount := 0
	iterIdx := 0
	var iter int64
	for stoppedCount < n {
		c := int(iter % int64(n))
		if b.stopped[c] {
			iter++
			continue
		}
		if iterIdx >= len(lt.iters) {
			return b.freezeAll(errIterStream)
		}
		it := &lt.iters[iterIdx]
		iterIdx++
		if err := b.replayIteration(it, c); err != nil {
			return err
		}
		if it.status == 0 {
			b.ranReal[c] = true
			b.stream.iterationsRun++
		} else {
			b.stopped[c] = true
			stoppedCount++
		}
		iter++
		if iter > 1<<40 {
			return b.freezeAll(errors.New("sim: replay loop runaway"))
		}
	}
	if iterIdx != len(lt.iters) {
		return b.freezeAll(errIterStream)
	}

	// End of loop: drain, flush. Conventional groups write their dirty
	// lines back once per group; every conventional lane still pays the
	// L2 drain.
	for gi := range b.mems {
		if g := &b.mems[gi]; g.live > 0 && !g.prof.anyDec {
			for c := 0; c < n; c++ {
				g.hier.FlushDirty(c)
			}
		}
	}
	for _, ln := range b.live {
		end := ln.start
		for c := 0; c < n; c++ {
			if ln.coreTime[c] > end {
				end = ln.coreTime[c]
			}
		}
		for c := 0; c < n; c++ {
			idle := end - ln.coreTime[c]
			if b.ranReal[c] {
				ln.res.Overheads.IterImbalance += idle
			} else {
				ln.res.Overheads.LowTripCount += end - ln.start
			}
		}
		if ln.ring != nil {
			dirty := 0
			if ln.arr != nil {
				dirty = ln.arr.arrays.DirtyWords()
			}
			end += ln.ring.FlushCostOf(dirty)
			ln.res.Ring.Stores += ln.ring.Stats.Stores
			ln.res.Ring.Loads += ln.ring.Stats.Loads
			ln.res.Ring.LoadHits += ln.ring.Stats.LoadHits
			ln.res.Ring.LoadMisses += ln.ring.Stats.LoadMisses
			ln.res.Ring.Evictions += ln.ring.Stats.Evictions
			ln.res.Ring.Signals += ln.ring.Stats.Signals
			ln.res.Ring.StallCycles += ln.ring.Stats.StallCycles
			ln.res.Ring.SignalStalls += ln.ring.Stats.SignalStalls
		} else if ln.mem != nil {
			end += int64(ln.arch.Mem.L2Latency)
		}
		ln.res.ParallelCycles += end + 5 - ln.now // +5: live-out collection
		ln.now = end + 5
		if ln.class.timer == ln {
			ln.seqCore.Reset(ln.now)
		}
	}
	return nil
}

// replayIteration mirrors runIterationFast minus everything functional:
// no interpreter step, no register values, no validation. The segment
// scratch, cursors, shared groups and stream counters are updated once
// per instruction, before the per-lane loop.
func (b *batchReplayer) replayIteration(it *iterTrace, c int) error {
	tr := b.tr
	scr := &b.scr
	scr.epoch++
	ep := scr.epoch
	activeSegs := 0

	// live is reloaded only after sharedCheck, the one place that
	// freezes lanes.
	live := b.live
	for _, ln := range live {
		ln.core = ln.parCores[c]
		ln.t = ln.coreTime[c]
	}

	for k := int32(0); k < it.runs; k++ {
		run := tr.runs[b.runCursor]
		b.runCursor++
		for off := run.off; off < run.off+run.n; off++ {
			if b.steps >= b.check {
				if err := b.sharedCheck(); err != nil {
					return err
				}
				live = b.live
			}
			m := &tr.metas[off]

			switch m.cls {
			case clsWait:
				s := int(m.seg)
				if scr.waitEp[s] != ep {
					scr.waitEp[s] = ep
					activeSegs++
					b.stream.segEntries++
				}
				b.stream.waitSignal++
				for _, ln := range live {
					core := ln.core
					iss := ln.issue(core, ir.NoReg, ln.t, 0, 1)
					var ready int64
					if ln.decSync {
						ready = ln.ring.WaitReady(s, c, iss+1)
					} else {
						ready = iss + 1 + ln.c2c
						if ln.convSig[s] > 0 {
							ready = max(ready, ln.convSig[s]+2*ln.c2c)
						}
					}
					core.Barrier(ready)
					ln.res.Overheads.DependenceWaiting += ready - (iss + 1)
					ln.advance(iss, m.branches)
				}

			case clsSignal:
				s := int(m.seg)
				if scr.waitEp[s] == ep && activeSegs > 0 {
					activeSegs--
				}
				b.stream.waitSignal++
				for _, ln := range live {
					core := ln.core
					iss := ln.issue(core, ir.NoReg, ln.t, 0, 1)
					send := iss + 1
					if ln.decSync {
						ln.ring.Signal(s, c, send)
					} else {
						send += ln.l1
						if send > ln.convSig[s] {
							ln.convSig[s] = send
						}
					}
					ln.advance(iss, m.branches)
				}

			case clsShared:
				ai := b.addrCursor
				addr := tr.addrs[ai]
				b.addrCursor++
				slot := tr.slotAt(ai)
				b.accessShared(c, addr, m.isStore, slot)
				for _, ln := range live {
					core := ln.core
					// A ring lane's own injection is one cycle; the ring
					// times the rest.
					viaRing := ln.ring != nil && ln.route.carries(slot)
					lat := int64(1)
					if !viaRing {
						lat = ln.memLat()
					}
					iss := ln.issue(core, m.dst, ln.t, metaReady(core, m), lat)
					switch {
					case !viaRing:
						ln.res.Overheads.Communication += max(0, lat-ln.l1)
					case m.isStore:
						ln.ring.TimeStore(c, addr, iss+1, ln.arr.evictions)
					default:
						done := ln.ring.TimeLoad(c, addr, iss+1, ln.arr.present, ln.arr.evictions)
						core.SetRegReady(m.dst, done)
						ln.res.Overheads.Communication += max(0, done-(iss+2))
					}
					ln.advance(iss, m.branches)
				}

			case clsPriv:
				b.access(c, tr.addrs[b.addrCursor], m.isStore)
				b.addrCursor++
				for _, ln := range live {
					core := ln.core
					lat := ln.memLat()
					iss := ln.issue(core, m.dst, ln.t, metaReady(core, m), lat)
					ln.res.Overheads.Memory += max(0, lat-ln.l1)
					ln.advance(iss, m.branches)
				}

			default:
				for _, ln := range live {
					core := ln.core
					iss := ln.issue(core, m.dst, ln.t, metaReady(core, m), m.lat)
					ln.advance(iss, m.branches)
				}
			}

			if m.added {
				b.stream.addedInstr++
			}
			if activeSegs > 0 {
				b.stream.seqSegInstrs++
			}
			b.stream.instrs++
			b.stream.parallelInstrs++
			b.steps++
		}
	}
	for _, ln := range live {
		ln.coreTime[c] = ln.t + 1
	}
	return nil
}
