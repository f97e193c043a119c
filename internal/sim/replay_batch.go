package sim

// The replay engine: one traversal of a recorded Trace re-times it under
// N configurations, with no functional execution at all. Replay is its
// one-lane case. The traversal — cursors, iteration scheduling, segment
// scratch — is driven by the recorded stream alone, so it is shared;
// each per-config "lane" owns only timing state (scoreboards, ring,
// hierarchy, clocks). Every timing expression mirrors the fast stepper
// (fast.go), and therefore the reference stepper.
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
// model is unchanged and its ring while its ring configuration is, so a
// steady-state call allocates only its Results. Every timing field is
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
		lanes[len(lanes)-1].reset(i, arch, tr.maxRegs)
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

// batchLane is the per-config timing state: everything except the trace
// cursors and step accounting, which are shared.
type batchLane struct {
	idx  int // position in the caller's archs slice
	arch Config
	hier *memsys.Hierarchy

	maxSteps int64
	now      int64 // sequential clock (core 0)
	t        int64 // current iteration's core clock, within a loop
	start    int64 // current loop's startup time
	res      Result
	err      error

	seqCore  *cpu.Core
	core     *cpu.Core // the core running the current iteration
	parCores []*cpu.Core
	coreTime []int64
	ringCfg  ringcache.Config
	ringBuf  *ringcache.Ring // the slot's one ring, reset for every loop
	ring     *ringcache.Ring // active loop's ring (nil on conventional lanes)
	convSig  []int64

	// memGroup indexes the lane's memory-sharing group (-1 for
	// PerfectMem lanes, which have no hierarchy). Lanes with identical
	// memory config and decoupling issue the exact same hierarchy access
	// sequence, so one leader lane per group owns the hierarchy and the
	// rest reuse its latencies — the dominant saving of batching.
	memGroup int

	decReg, decMem, decSync bool
	c2c, l1, branchCost     int64
}

// reset points a lane slot at arch for one replay. Every timing field
// starts fresh; the scoreboards survive while the core model is
// unchanged and the ring while the ring configuration is.
func (ln *batchLane) reset(idx int, arch Config, maxRegs int) {
	if arch.Core != ln.arch.Core {
		ln.seqCore = nil
		clear(ln.parCores)
	}
	if rc := ringConfig(arch); rc != ln.ringCfg {
		ln.ringCfg, ln.ringBuf = rc, nil
	}
	ln.idx, ln.arch = idx, arch
	ln.hier, ln.core, ln.ring = nil, nil, nil
	ln.maxSteps = arch.effectiveMaxSteps()
	ln.now, ln.t, ln.start = 0, 0, 0
	ln.res, ln.err = Result{}, nil
	ln.memGroup = -1
	ln.decReg, ln.decMem, ln.decSync = arch.DecoupleReg, arch.DecoupleMem, arch.DecoupleSync
	ln.c2c, ln.l1 = int64(arch.Mem.CacheToCache), int64(arch.Mem.L1Latency)
	if arch.PerfectMem {
		ln.c2c = 0
	}
	ln.branchCost = int64(arch.Core.BranchCost)
	if ln.seqCore == nil {
		ln.seqCore = cpu.NewCore(arch.Core, maxRegs)
	} else {
		ln.seqCore.Grow(maxRegs)
	}
	ln.seqCore.Reset(0)
}

// memProfile identifies lanes whose hierarchy access sequences (and
// therefore latencies and stats) are provably identical: same memory
// config, and the same shared-access routing — whether a ring exists at
// all, and which access kinds it absorbs. Ring parameters and the core
// model shift timing, never the access stream, so they stay out.
type memProfile struct {
	mem            memsys.Config
	anyDec         bool
	decReg, decMem bool
}

func (ln *batchLane) memProfile() memProfile {
	return memProfile{
		mem:    ln.arch.Mem,
		anyDec: ln.decReg || ln.decMem || ln.decSync,
		decReg: ln.decReg,
		decMem: ln.decMem,
	}
}

// latFor resolves one hierarchy access latency for a lane: group
// leaders (hierarchy owners) access and publish, followers reuse the
// leader's value. Live-lane order keeps each group's leader first.
func (b *batchReplayer) latFor(ln *batchLane, c int, addr int64, write bool) int64 {
	if ln.hier != nil {
		lat := int64(ln.hier.Access(c, addr, write))
		b.groupLat[ln.memGroup] = lat
		return lat
	}
	if ln.memGroup < 0 {
		return 1 // PerfectMem
	}
	return b.groupLat[ln.memGroup]
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

// ringFor returns the slot's ring reset for a loop of numSegs segments.
func (ln *batchLane) ringFor(numSegs int) *ringcache.Ring {
	if ln.ringBuf == nil {
		ln.ringBuf = ringcache.New(ln.ringCfg, numSegs)
	} else {
		ln.ringBuf.Reset(numSegs)
	}
	return ln.ringBuf
}

// finish is the shared post-dispatch bookkeeping of one dynamic
// instruction of a loop iteration on one lane.
func (ln *batchLane) finish(issue int64, inSeg, added, branches bool) {
	if added {
		ln.res.Overheads.AddedInstr++
	}
	if inSeg {
		ln.res.SeqSegInstrs++
	}
	ln.res.Instrs++
	ln.res.ParallelInstrs++
	if branches {
		ln.t = issue + ln.branchCost
	} else {
		ln.t = issue
	}
}

// batchReplayer walks the trace once for all lanes. The stream-driven
// state (cursors, step count, iteration scheduling, segment scratch) is
// shared; live holds the lanes still being advanced, in stable order.
type batchReplayer struct {
	ctx   context.Context
	tr    *Trace
	cores int

	steps int64
	check int64 // next steps value at which sharedCheck must run

	runCursor  int
	addrCursor int

	lanes []batchLane  // this call's lanes; pooled slots beyond len
	live  []*batchLane // still-advancing lanes, in stable lane order

	// groupLeader[g] is the live lane owning group g's hierarchy (always
	// the group's first live lane); groupLat[g] is the latency it
	// published for the instruction being processed.
	groupLeader []*batchLane
	groupLat    []int64

	ranReal []bool
	stopped []bool
	scr     segScratch
}

// group fills live with every lane and sorts the lanes with a hierarchy
// into memory-sharing groups, handing each group's first lane a pooled
// hierarchy.
func (b *batchReplayer) group() {
	for li := range b.lanes {
		ln := &b.lanes[li]
		b.live = append(b.live, ln)
		if ln.arch.PerfectMem {
			continue
		}
		p := ln.memProfile()
		ln.memGroup = len(b.groupLeader)
		for g, leader := range b.groupLeader {
			if leader.memProfile() == p {
				ln.memGroup = g
				break
			}
		}
		if ln.memGroup == len(b.groupLeader) {
			b.groupLeader = append(b.groupLeader, ln)
			ln.hier = hierFromPool(b.cores, ln.arch.Mem)
		}
	}
	if cap(b.groupLat) < len(b.groupLeader) {
		b.groupLat = make([]int64, len(b.groupLeader))
	}
	b.groupLat = b.groupLat[:len(b.groupLeader)]
}

// release parks the replayer for reuse. Every hierarchy went back to
// its pool when its lane froze or the walk ended. A parked replayer
// keeps one set of scoreboards and one ring per lane of its last call,
// never slots a larger earlier call left behind: rings can be large
// (Figure 11d's 32 KB node arrays make a 2 MB ring at 16 cores), and a
// replayer that stays hot would otherwise carry them indefinitely.
// Dropping the other references keeps it from pinning a trace, a
// context or an error.
func (b *batchReplayer) release() {
	clear(b.lanes[len(b.lanes):cap(b.lanes)])
	b.ctx, b.tr = nil, nil
	clear(b.live[:cap(b.live)])
	b.live = b.live[:0]
	clear(b.groupLeader[:cap(b.groupLeader)])
	b.groupLeader = b.groupLeader[:0]
	for li := range b.lanes {
		b.lanes[li].err = nil
	}
	replayerPool.Put(b)
}

// freeze retires live[i]: the lane keeps its partial Result exactly as
// Run's error return would (no Cycles, no memory stats), and stops
// being advanced. A frozen group leader hands its hierarchy to the
// group's next live lane — whose own hierarchy, had it owned one, would
// be in exactly this state — or back to the pool when none remains.
func (b *batchReplayer) freeze(i int, err error) {
	ln := b.live[i]
	ln.err = err
	b.live = append(b.live[:i], b.live[i+1:]...)
	if ln.hier != nil {
		var promoted *batchLane
		for _, lo := range b.live {
			if lo.memGroup == ln.memGroup {
				promoted = lo
				break
			}
		}
		if promoted != nil {
			promoted.hier = ln.hier
			b.groupLeader[ln.memGroup] = promoted
		} else {
			hierToPool(ln.hier, b.cores, ln.arch.Mem)
		}
		ln.hier = nil
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
		if ln.memGroup >= 0 {
			// Followers read their group leader's stats — identical to
			// what their own hierarchy would have accumulated.
			ln.res.Mem = b.groupLeader[ln.memGroup].hier.Stats
		}
	}
	for _, ln := range b.live {
		if ln.hier != nil {
			hierToPool(ln.hier, b.cores, ln.arch.Mem)
			ln.hier = nil
		}
	}
}

// seqSpan replays nruns block-runs of sequential code on every live
// lane's core 0, mirroring runSequentialFast.
func (b *batchReplayer) seqSpan(nruns int) error {
	tr := b.tr
	live := b.live
	for k := 0; k < nruns; k++ {
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
			isMem := m.cls == clsShared || m.cls == clsPriv
			var addr int64
			if isMem {
				addr = tr.addrs[b.addrCursor]
				b.addrCursor++
			}
			for _, ln := range live {
				lat := m.lat
				if isMem {
					lat = b.latFor(ln, 0, addr, m.isStore)
				}
				issue, _ := ln.seqCore.IssueReg(m.dst, ln.now, metaReady(ln.seqCore, m), lat)
				ln.res.Instrs++
				if m.branches {
					ln.now = issue + ln.branchCost
				} else {
					ln.now = issue
				}
			}
			b.steps++
		}
	}
	return nil
}

// replayLoop mirrors runLoop's timing: startup, round-robin scheduling
// driven by the recorded iteration statuses, drain, flush.
func (b *batchReplayer) replayLoop(lt *loopTrace) error {
	n := b.cores
	numSegs := int(lt.numSegs)

	for _, ln := range b.live {
		ln.res.LoopInvocations++
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
		if ln.decReg || ln.decMem || ln.decSync {
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
			for _, ln := range b.live {
				ln.res.IterationsRun++
			}
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

	// End of loop: drain, flush.
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
			end += ln.ring.FlushCost()
			ln.res.Ring.Stores += ln.ring.Stats.Stores
			ln.res.Ring.Loads += ln.ring.Stats.Loads
			ln.res.Ring.LoadHits += ln.ring.Stats.LoadHits
			ln.res.Ring.LoadMisses += ln.ring.Stats.LoadMisses
			ln.res.Ring.Evictions += ln.ring.Stats.Evictions
			ln.res.Ring.Signals += ln.ring.Stats.Signals
			ln.res.Ring.StallCycles += ln.ring.Stats.StallCycles
			ln.res.Ring.SignalStalls += ln.ring.Stats.SignalStalls
		} else if ln.memGroup >= 0 {
			// Flush once per group (the leader owns the hierarchy);
			// every conventional lane still pays the L2 drain.
			if ln.hier != nil {
				for c := 0; c < n; c++ {
					ln.hier.FlushDirty(c)
				}
			}
			end += int64(ln.arch.Mem.L2Latency)
		}
		ln.res.ParallelCycles += end + 5 - ln.now // +5: live-out collection
		ln.now = end + 5
		ln.seqCore.Reset(ln.now)
	}
	return nil
}

// replayIteration mirrors runIterationFast minus everything functional:
// no interpreter step, no register values, no validation. The segment
// scratch and cursors are shared, and segment-entry transitions are
// stream-driven, so they are hoisted out of the per-lane loops.
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
			added := m.added

			switch m.cls {
			case clsWait:
				s := int(m.seg)
				firstWait := scr.waitEp[s] != ep
				if firstWait {
					scr.waitEp[s] = ep
					activeSegs++
				}
				inSeg := activeSegs > 0
				for _, ln := range live {
					core := ln.core
					iss, _ := core.IssueReg(ir.NoReg, ln.t, 0, 1)
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
					ln.res.Overheads.WaitSignal++
					if firstWait {
						ln.res.SegEntries++
					}
					ln.finish(iss, inSeg, added, m.branches)
				}

			case clsSignal:
				s := int(m.seg)
				if scr.waitEp[s] == ep && activeSegs > 0 {
					activeSegs--
				}
				inSeg := activeSegs > 0
				for _, ln := range live {
					iss, _ := ln.core.IssueReg(ir.NoReg, ln.t, 0, 1)
					send := iss + 1
					if ln.decSync {
						ln.ring.Signal(s, c, send)
					} else {
						send += ln.l1
						if send > ln.convSig[s] {
							ln.convSig[s] = send
						}
					}
					ln.res.Overheads.WaitSignal++
					ln.finish(iss, inSeg, added, m.branches)
				}

			case clsShared:
				ai := b.addrCursor
				addr := tr.addrs[ai]
				b.addrCursor++
				slot := tr.slotAt(ai)
				inSeg := activeSegs > 0
				for _, ln := range live {
					core := ln.core
					dec := ln.decMem
					if slot {
						dec = ln.decReg
					}
					var issue int64
					if ln.ring != nil && dec {
						iss, _ := core.IssueReg(m.dst, ln.t, metaReady(core, m), 1)
						if m.isStore {
							ln.ring.Store(c, addr, iss+1)
						} else {
							done := ln.ring.Load(c, addr, iss+1)
							core.SetRegReady(m.dst, done)
							ln.res.Overheads.Communication += max(0, done-(iss+2))
						}
						issue = iss
					} else {
						lat := b.latFor(ln, c, addr, m.isStore)
						iss, _ := core.IssueReg(m.dst, ln.t, metaReady(core, m), lat)
						ln.res.Overheads.Communication += max(0, lat-ln.l1)
						issue = iss
					}
					ln.finish(issue, inSeg, added, m.branches)
				}

			case clsPriv:
				addr := tr.addrs[b.addrCursor]
				b.addrCursor++
				inSeg := activeSegs > 0
				for _, ln := range live {
					lat := b.latFor(ln, c, addr, m.isStore)
					iss, _ := ln.core.IssueReg(m.dst, ln.t, metaReady(ln.core, m), lat)
					ln.res.Overheads.Memory += max(0, lat-ln.l1)
					ln.finish(iss, inSeg, added, m.branches)
				}

			default:
				inSeg := activeSegs > 0
				for _, ln := range live {
					iss, _ := ln.core.IssueReg(m.dst, ln.t, metaReady(ln.core, m), m.lat)
					ln.finish(iss, inSeg, added, m.branches)
				}
			}

			b.steps++
		}
	}
	for _, ln := range live {
		ln.coreTime[c] = ln.t + 1
	}
	return nil
}
