package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"helixrc/internal/cpu"
	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
	memsys "helixrc/internal/mem"
	"helixrc/internal/ringcache"
)

// ErrBudget is returned when the simulation exceeds its step budget.
var ErrBudget = errors.New("sim: step budget exceeded")

// ctxCheckEvery is how many simulated instructions pass between context
// polls on the budget-check path. At fast-path speeds (millions of
// instructions per second) 64k steps is well under a millisecond, so a
// cancelled or deadline-expired context is observed promptly without a
// measurable per-step cost: the hot loops compare steps against a single
// precomputed bound exactly as the pure budget check did.
const ctxCheckEvery = 1 << 16

// Run simulates entry(args...) on the platform. comp may be nil, in which
// case prog runs purely sequentially on core 0 (the baseline). Otherwise
// Run executes comp.Prog, the program HCC emitted, and prog must be
// either comp.Prog or the input it extends; any other program is an
// error.
//
// Run watches ctx on the step-accounting path: a cancelled context makes
// it return ctx.Err() (with the partial Result accumulated so far),
// bounded by ctxCheckEvery simulated instructions of delay. A nil ctx is
// treated as context.Background().
//
// Run uses the fast stepper, which pre-decodes per-instruction metadata
// once per block and pools simulator state (ring, hierarchy, contexts,
// register files) across invocations. Reference is the same timing
// model on the retained reference stepper; the two produce
// bit-identical Results.
func Run(ctx context.Context, prog *ir.Program, comp *hcc.Compiled, entry *ir.Function, arch Config, args ...int64) (*Result, error) {
	res, _, err := run(ctx, prog, comp, entry, arch, false, nil, args)
	return res, err
}

// Reference is Run on the retained reference stepper: no pre-decoded
// instruction metadata and no pooled state, so it re-derives operand
// sets, latencies and traffic classes on every dynamic instruction and
// allocates every structure fresh, exactly as the original
// implementation did. It is the oracle the fast stepper, Record and
// the replay engine are tested against, not a production path.
func Reference(ctx context.Context, prog *ir.Program, comp *hcc.Compiled, entry *ir.Function, arch Config, args ...int64) (*Result, error) {
	res, _, err := run(ctx, prog, comp, entry, arch, true, nil, args)
	return res, err
}

// run is the shared implementation behind Run, Reference and Record.
// slow selects the reference stepper. rec, when non-nil, receives the
// dynamic trace (fast path only); the returned int is the register-file
// width, which Replay needs for the sequential core.
func run(ctx context.Context, prog *ir.Program, comp *hcc.Compiled, entry *ir.Function, arch Config, slow bool, rec *recorder, args []int64) (*Result, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if arch.Cores <= 0 {
		arch.Cores = 16
	}
	if comp != nil {
		if prog != comp.Prog && prog != comp.Prog.Base() {
			return nil, 0, fmt.Errorf("sim: program %s is neither the compiled program nor its input", prog.Name)
		}
		prog = comp.Prog
	}
	r := &runner{
		ctx:  ctx,
		prog: prog, comp: comp, arch: arch,
		mem:       interp.NewMemory(prog),
		headerMap: map[*ir.Block]*hcc.ParallelLoop{},
		maxSteps:  arch.effectiveMaxSteps(),
		slow:      slow,
		rec:       rec,
	}
	if !arch.PerfectMem {
		if r.slow {
			r.hier = memsys.NewHierarchy(arch.Cores, arch.Mem)
		} else {
			r.hier = hierFromPool(arch.Cores, arch.Mem)
		}
	}
	if comp != nil {
		for _, pl := range comp.Loops {
			r.headerMap[pl.Header] = pl
		}
	}
	for _, f := range prog.Funcs {
		if f.NumRegs > r.maxRegs {
			r.maxRegs = f.NumRegs
		}
	}
	// The returned Result is a copy: a pointer into the runner would keep
	// the runner, its memory image and its pooled state alive for as long
	// as any cache holds the Result.
	if err := r.runSequential(entry, args); err != nil {
		r.reclaimHier()
		res := r.res
		return &res, r.maxRegs, err
	}
	r.res.Cycles = r.now
	if r.hier != nil {
		r.res.Mem = r.hier.Stats
	}
	r.reclaimHier()
	res := r.res
	return &res, r.maxRegs, nil
}

type runner struct {
	ctx  context.Context
	prog *ir.Program
	comp *hcc.Compiled
	arch Config
	mem  *interp.Memory
	hier *memsys.Hierarchy

	headerMap map[*ir.Block]*hcc.ParallelLoop
	maxRegs   int

	now      int64
	steps    int64
	maxSteps int64
	check    int64 // next steps value at which checkStep must run
	res      Result

	// slow selects the reference stepper; the fields below are the fast
	// path's reusable state (see fast.go).
	slow     bool
	decoded  map[*ir.Block][]instrMeta
	loops    map[*hcc.ParallelLoop]*loopStatic
	rings    map[int]*ringcache.Ring
	parRegs  [][]int64
	parCores []*cpu.Core
	coreTime []int64
	ranReal  []bool
	stopped  []bool
	bctxs    []*interp.Context
	convSig  []int64
	lastW    map[int64]lastWrite
	lastVals map[ir.Reg]lastValRec
	scr      segScratch

	// rec, when non-nil, records a replayable Trace (fast path only).
	rec *recorder
}

// checkStep is the slow half of the per-step guard: the steppers compare
// steps against r.check (initially 0, so the first instruction lands
// here) and only then pay for the real budget test and a context poll.
// Because check never exceeds maxSteps, ErrBudget fires at exactly the
// same instruction as the original direct comparison did.
func (r *runner) checkStep() error {
	if r.steps >= r.maxSteps {
		return ErrBudget
	}
	if err := r.ctx.Err(); err != nil {
		return err
	}
	r.check = r.steps + ctxCheckEvery
	if r.check > r.maxSteps {
		r.check = r.maxSteps
	}
	return nil
}

// memLat returns the latency of a private (non-ring) access.
func (r *runner) memLat(core int, addr int64, write bool) int64 {
	if r.arch.PerfectMem {
		return 1
	}
	return int64(r.hier.Access(core, addr, write))
}

// runSequential executes code outside parallel loops on core 0.
func (r *runner) runSequential(entry *ir.Function, args []int64) error {
	if !r.slow {
		return r.runSequentialFast(entry, args)
	}
	core := cpu.NewCore(r.arch.Core, r.maxRegs)
	core.Reset(0)
	ctx := interp.NewContext(r.prog, r.mem, entry, args...)

	for !ctx.Done() {
		if r.steps >= r.check {
			if err := r.checkStep(); err != nil {
				return err
			}
		}
		_, blk, idx := ctx.Frame()
		if idx == 0 {
			if pl := r.headerMap[blk]; pl != nil {
				if err := r.runLoop(pl, ctx, core); err != nil {
					return err
				}
				continue
			}
		}
		in := ctx.Next()
		opReady := core.OpReady(in)
		var lat int64 = cpu.Latency(in.Op)
		if in.Op.IsMem() {
			addr := ctx.EffectiveAddr(in)
			lat = r.memLat(0, addr, in.Op == ir.OpStore)
		} else if in.Op == ir.OpCall && in.Extern != nil && in.Extern.Latency > 0 {
			lat = int64(in.Extern.Latency)
		}
		issue, _ := core.Issue(in, r.now, opReady, lat)
		info := ctx.Step()
		r.steps++
		r.res.Instrs++
		if info.Branched {
			r.now = issue + int64(r.arch.Core.BranchCost)
		} else {
			r.now = issue
		}
		if info.Returned {
			r.res.RetValue = info.RetValue
		}
	}
	// Account for the last instructions draining.
	r.now++
	return nil
}

// trafficClass labels a shared access for decoupling decisions.
func (r *runner) decoupled(pl *hcc.ParallelLoop, addr int64) bool {
	if pl.SlotAddrs[addr] {
		return r.arch.DecoupleReg
	}
	return r.arch.DecoupleMem
}

type lastWrite struct {
	iter int64
	seg  int
}

// lastValRec tracks the most recent definition of a last-value register.
type lastValRec struct {
	iter int64
	val  int64
}

// runLoop simulates one invocation of a parallelized loop. The setup and
// teardown (startup cost, live-in broadcast, drain, flush, architectural
// state restore) are shared between the fast and slow steppers; only the
// per-iteration stepping differs.
func (r *runner) runLoop(pl *hcc.ParallelLoop, ctx *interp.Context, seqCore *cpu.Core) error {
	n := r.arch.Cores
	r.res.LoopInvocations++
	body := pl.Body

	// Which segments actually have synchronization in the body.
	var segsUsed map[int]bool
	var lastValDefs map[int32]ir.Reg
	var ls *loopStatic
	if r.slow {
		segsUsed = map[int]bool{}
		lastValDefs = map[int32]ir.Reg{}
		for _, b := range body.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpSignal {
					segsUsed[b.Instrs[i].Seg] = true
				}
			}
		}
		for reg, uids := range pl.LastValue {
			for _, uid := range uids {
				lastValDefs[uid] = reg
			}
		}
	} else {
		ls = r.staticFor(pl)
	}

	// Startup: wake the pinned worker threads and broadcast live-ins
	// (workers spin between loops in the HELIX execution model, so
	// dispatch is cheap).
	start := r.now + 12 + int64(n)/2
	if !pl.Counted {
		r.mem.Store(pl.CtlAddr, math.MaxInt64)
	}
	for reg, slot := range pl.SlotOf {
		r.mem.Store(slot, ctx.Reg(reg))
		start += 2
	}
	if r.rec != nil {
		r.rec.beginLoop(pl, ctx.Reg)
	}

	// Per-core state. The fast path reuses the runner's buffers across
	// invocations (re-initialized here to exactly the fresh state).
	var regs [][]int64
	var cores []*cpu.Core
	var coreTime []int64
	var ranReal, stopped []bool
	if r.slow {
		regs = make([][]int64, n)
		cores = make([]*cpu.Core, n)
		coreTime = make([]int64, n)
		ranReal = make([]bool, n)
		stopped = make([]bool, n)
	} else {
		r.ensurePerCore(n)
		regs, cores = r.parRegs, r.parCores
		coreTime, ranReal, stopped = r.coreTime, r.ranReal, r.stopped
	}
	initVals := map[ir.Reg]int64{}
	for reg := range pl.Reductions {
		initVals[reg] = ctx.Reg(reg)
	}
	srcRegs := ctx.Regs()
	for c := 0; c < n; c++ {
		var rf []int64
		if r.slow {
			rf = make([]int64, body.NumRegs)
		} else {
			rf = r.regBuf(c, body.NumRegs)
		}
		copy(rf, srcRegs[:min(len(srcRegs), body.NumRegs)])
		for reg, rule := range pl.Recompute {
			rf[rule.Shadow] = ctx.Reg(reg)
		}
		for reg, kind := range pl.Reductions {
			rf[reg] = kind.Identity()
		}
		regs[c] = rf
		if cores[c] == nil || r.slow {
			cores[c] = cpu.NewCore(r.arch.Core, body.NumRegs)
		} else {
			cores[c].Grow(body.NumRegs)
		}
		cores[c].Reset(start)
		coreTime[c] = start
		ranReal[c] = false
		stopped[c] = false
	}

	var ring *ringcache.Ring
	if r.arch.DecoupleReg || r.arch.DecoupleMem || r.arch.DecoupleSync {
		rc := r.arch.Ring
		rc.Nodes = n
		if r.arch.PerfectMem {
			rc.LinkLatency, rc.InjectLatency, rc.OwnerL1Latency = 0, 0, 0
			rc.DataBandwidth, rc.SignalBandwidth = 0, 0
			rc.ArrayBytes = 0
		}
		if r.slow {
			ring = ringcache.New(rc, pl.NumSegs)
		} else {
			ring = r.ringFor(rc, pl.NumSegs)
		}
	}
	// Conventional synchronization: prefix-max of signal send times.
	var convSig []int64
	if r.slow {
		convSig = make([]int64, pl.NumSegs)
	} else {
		convSig = r.convBuf(pl.NumSegs)
		r.scr.ensure(pl.NumSegs)
	}
	c2c := int64(r.arch.Mem.CacheToCache)
	if r.arch.PerfectMem {
		c2c = 0
	}
	l1 := int64(r.arch.Mem.L1Latency)

	var lastW map[int64]lastWrite
	var lastVals map[ir.Reg]lastValRec
	if r.slow {
		lastW = map[int64]lastWrite{}
		lastVals = map[ir.Reg]lastValRec{}
	} else {
		if r.lastW == nil {
			r.lastW = map[int64]lastWrite{}
			r.lastVals = map[ir.Reg]lastValRec{}
		}
		clear(r.lastW)
		clear(r.lastVals)
		lastW, lastVals = r.lastW, r.lastVals
	}

	exitIter := int64(-1)
	exitCode := int64(-1)
	exitCore := -1
	stoppedCount := 0

	var iter int64
	for stoppedCount < n {
		c := int(iter % int64(n))
		if stopped[c] {
			iter++
			continue
		}
		var status int64
		var err error
		if r.rec != nil {
			r.rec.beginIter()
		}
		if r.slow {
			status, err = r.runIteration(pl, ring, convSig, segsUsed, lastValDefs,
				regs[c], cores[c], &coreTime[c], c, iter, c2c, l1, lastW, lastVals)
		} else {
			status, err = r.runIterationFast(pl, ls, ring, convSig,
				regs[c], cores[c], &coreTime[c], c, iter, c2c, l1, lastW, lastVals)
		}
		if err != nil {
			return err
		}
		if r.rec != nil {
			r.rec.endIter(status)
		}
		switch {
		case status == 0:
			ranReal[c] = true
			r.res.IterationsRun++
		case status == 1: // not run
			stopped[c] = true
			stoppedCount++
		default: // exited via edge status-2
			// The exiting iteration only ran the loop's exit evaluation
			// (or a partial body on a break); it does not count as a full
			// iteration, and on counted loops every core eventually
			// reaches one.
			if exitIter < 0 {
				exitIter, exitCode, exitCore = iter, status-2, c
			}
			stopped[c] = true
			stoppedCount++
		}
		iter++
		if iter > 1<<40 {
			return fmt.Errorf("sim: loop %d runaway", pl.ID)
		}
	}
	if exitCore < 0 {
		return &ValidationError{Loop: pl.ID, Iter: iter, Msg: "loop ended without an exit iteration"}
	}

	// End of loop: drain, flush, restore.
	end := start
	for c := 0; c < n; c++ {
		if coreTime[c] > end {
			end = coreTime[c]
		}
	}
	for c := 0; c < n; c++ {
		idle := end - coreTime[c]
		if ranReal[c] {
			r.res.Overheads.IterImbalance += idle
		} else {
			r.res.Overheads.LowTripCount += end - start
		}
	}
	if ring != nil {
		end += ring.FlushCost()
		r.res.Ring.Stores += ring.Stats.Stores
		r.res.Ring.Loads += ring.Stats.Loads
		r.res.Ring.LoadHits += ring.Stats.LoadHits
		r.res.Ring.LoadMisses += ring.Stats.LoadMisses
		r.res.Ring.Evictions += ring.Stats.Evictions
		r.res.Ring.Signals += ring.Stats.Signals
		r.res.Ring.StallCycles += ring.Stats.StallCycles
		r.res.Ring.SignalStalls += ring.Stats.SignalStalls
	} else if r.hier != nil {
		for c := 0; c < n; c++ {
			r.hier.FlushDirty(c)
		}
		end += int64(r.arch.Mem.L2Latency)
	}

	if r.rec != nil {
		r.rec.endLoop(lastVals)
	}

	// Restore architectural state into the continuing context.
	exitRegs := regs[exitCore]
	dst := ctx.Regs()
	copy(dst, exitRegs[:min(len(dst), len(exitRegs))])
	for reg, kind := range pl.Reductions {
		acc := initVals[reg]
		for c := 0; c < n; c++ {
			acc = kind.Combine(acc, regs[c][reg])
		}
		ctx.SetReg(reg, acc)
	}
	for reg, slot := range pl.SlotOf {
		ctx.SetReg(reg, r.mem.Load(slot))
	}
	for reg := range pl.LastValue {
		if rec, ok := lastVals[reg]; ok {
			ctx.SetReg(reg, rec.val)
		}
	}
	if int(exitCode) >= len(pl.ExitTargets) {
		return &ValidationError{Loop: pl.ID, Iter: exitIter, Msg: "bad exit code"}
	}
	ctx.JumpTo(pl.ExitTargets[exitCode])

	parCycles := end + 5 - r.now // +5: live-out collection
	r.res.ParallelCycles += parCycles
	r.now = end + 5
	seqCore.Reset(r.now)
	return nil
}

// runIteration simulates one iteration functionally and in time. This is
// the retained reference stepper (Reference): it re-derives operand
// sets, latencies and traffic classes on every dynamic instruction and
// allocates its bookkeeping fresh. runIterationFast must match it
// bit-for-bit.
func (r *runner) runIteration(pl *hcc.ParallelLoop, ring *ringcache.Ring,
	convSig []int64, segsUsed map[int]bool, lastValDefs map[int32]ir.Reg,
	rf []int64, core *cpu.Core, coreTime *int64, c int, iter int64,
	c2c, l1 int64, lastW map[int64]lastWrite,
	lastVals map[ir.Reg]lastValRec) (int64, error) {

	body := pl.Body
	bctx := interp.NewContextWithRegs(r.prog, r.mem, body, rf, iter)
	t := *coreTime
	waitDone := make(map[int]bool, pl.NumSegs)
	sigCount := make(map[int]int, pl.NumSegs)
	activeSegs := 0
	var status int64 = -1

	for !bctx.Done() {
		if r.steps >= r.check {
			if err := r.checkStep(); err != nil {
				return 0, err
			}
		}
		in := bctx.Next()
		opReady := core.OpReady(in)

		var issue int64
		switch {
		case in.Op == ir.OpWait:
			s := in.Seg
			var ready int64
			iss, _ := core.Issue(in, t, 0, 1)
			if r.arch.DecoupleSync {
				ready = ring.WaitReady(s, c, iss+1)
			} else {
				// Lazy pull-based synchronization: the consumer polls a
				// flag line. The first poll costs a cache-to-cache fetch
				// even when the signal is long since set; if the producer
				// has not signalled yet, the producer's store invalidates
				// the polled copy and the consumer fetches again.
				ready = iss + 1 + c2c
				if convSig[s] > 0 {
					ready = max(ready, convSig[s]+2*c2c)
				}
			}
			core.Barrier(ready)
			r.res.Overheads.DependenceWaiting += ready - (iss + 1)
			r.res.Overheads.WaitSignal++
			t = ready
			if !waitDone[s] {
				waitDone[s] = true
				activeSegs++
				r.res.SegEntries++
			}
			issue = iss

		case in.Op == ir.OpSignal:
			s := in.Seg
			iss, _ := core.Issue(in, t, 0, 1)
			send := iss + 1
			if r.arch.DecoupleSync {
				ring.Signal(s, c, send)
			} else {
				// Signal via a memory flag: producer-side store.
				send += l1
				if send > convSig[s] {
					convSig[s] = send
				}
			}
			sigCount[s]++
			r.res.Overheads.WaitSignal++
			if waitDone[s] && activeSegs > 0 {
				activeSegs--
			}
			t = iss
			issue = iss

		case in.Op.IsMem() && in.SharedSeg >= 0:
			s := in.SharedSeg
			addr := bctx.EffectiveAddr(in)
			write := in.Op == ir.OpStore
			// Compiler-guarantee validation.
			if !waitDone[s] {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("shared access (seg %d) before wait: %s", s, in.String())}
			}
			if w, ok := lastW[addr]; ok && w.iter < iter && w.seg != s {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("addr %d crosses segments %d and %d", addr, w.seg, s)}
			}
			if ring != nil && r.decoupled(pl, addr) {
				iss, _ := core.Issue(in, t, opReady, 1)
				if write {
					// Injection is decoupled: the core continues while the
					// value circulates.
					ring.Store(c, addr, iss+1)
				} else {
					done := ring.Load(c, addr, iss+1)
					core.SetRegReady(in.Dst, done)
					r.res.Overheads.Communication += max(0, done-(iss+2))
				}
				issue = iss
			} else {
				lat := r.memLat(c, addr, write)
				iss, _ := core.Issue(in, t, opReady, lat)
				r.res.Overheads.Communication += max(0, lat-l1)
				issue = iss
			}
			if write {
				lastW[addr] = lastWrite{iter: iter, seg: s}
			}

		case in.Op.IsMem():
			addr := bctx.EffectiveAddr(in)
			write := in.Op == ir.OpStore
			if w, ok := lastW[addr]; ok && w.iter < iter && (write || w.seg >= 0) {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("private access to shared addr %d (writer iter %d seg %d)", addr, w.iter, w.seg)}
			}
			lat := r.memLat(c, addr, write)
			iss, _ := core.Issue(in, t, opReady, lat)
			r.res.Overheads.Memory += max(0, lat-l1)
			if write {
				lastW[addr] = lastWrite{iter: iter, seg: -1}
			}
			issue = iss

		default:
			lat := cpu.Latency(in.Op)
			if in.Op == ir.OpCall && in.Extern != nil && in.Extern.Latency > 0 {
				lat = int64(in.Extern.Latency)
			}
			iss, _ := core.Issue(in, t, opReady, lat)
			issue = iss
		}

		if in.Origin < 0 && !in.Op.IsSync() {
			r.res.Overheads.AddedInstr++
		}
		if activeSegs > 0 {
			r.res.SeqSegInstrs++
		}

		uid := in.UID
		info := bctx.Step()
		r.steps++
		r.res.Instrs++
		r.res.ParallelInstrs++

		if reg, ok := lastValDefs[uid]; ok {
			if rec, seen := lastVals[reg]; !seen || iter >= rec.iter {
				lastVals[reg] = lastValRec{iter: iter, val: rf[reg]}
			}
		}

		if info.Branched {
			t = issue + int64(r.arch.Core.BranchCost)
		} else {
			t = issue
		}
		if info.Returned {
			status = info.RetValue
		}
	}

	// Exactly-once signalling per used segment.
	for s := range segsUsed {
		if sigCount[s] != 1 {
			return 0, &ValidationError{Loop: pl.ID, Iter: iter,
				Msg: fmt.Sprintf("segment %d signalled %d times", s, sigCount[s])}
		}
	}
	*coreTime = t + 1
	return status, nil
}
