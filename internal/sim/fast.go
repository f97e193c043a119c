package sim

// The fast path: the same timing model as the reference stepper in
// sim.go, restructured for wall-clock speed. Three techniques, none of
// which may change a single cycle count:
//
//   - Pre-decoded instruction metadata. The reference stepper re-derives
//     destination/operand registers, the opcode latency class, the
//     traffic classification (shared vs private memory, wait/signal) and
//     the extern latency on every dynamic instruction. The fast path
//     decodes each static instruction once per run into a flat
//     []instrMeta per block and dispatches on a small class tag.
//   - Allocation-free iterations. The reference stepper allocates a
//     fresh interp.Context and two maps per iteration and fresh per-core
//     state per loop invocation; the fast path reuses per-core contexts
//     (interp.Context.Restart), epoch-stamped scratch slices for the
//     per-iteration wait/signal sets, and the runner's per-core buffers.
//   - State pooling. Ring caches are pooled per segment count across
//     loop invocations (ringcache.Ring.Reset) and memory hierarchies are
//     pooled across runs (mem.Hierarchy.Reset + sync.Pool), replacing
//     the dominant allocations in profile traces.
//
// The golden tests in fast_test.go assert Result equality against the
// reference stepper (Reference) on synthetic kernels and every SPEC
// analogue; the harness determinism test asserts byte-identical figure
// output.

import (
	"fmt"
	"sort"
	"sync"

	"helixrc/internal/cpu"
	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
	memsys "helixrc/internal/mem"
	"helixrc/internal/ringcache"
)

// mClass is an instruction's dispatch class, fixed at decode time.
type mClass uint8

const (
	clsOther  mClass = iota // plain op: latency and operands pre-resolved
	clsWait                 // OpWait on segment seg
	clsSignal               // OpSignal on segment seg
	clsShared               // memory op on shared data (SharedSeg >= 0)
	clsPriv                 // private memory op
)

// instrMeta is everything the stepper needs per static instruction.
type instrMeta struct {
	lat      int64  // result latency for non-memory instructions
	dst      ir.Reg // destination register or ir.NoReg
	lastVal  ir.Reg // last-value register this instruction defines, or ir.NoReg
	seg      int32  // segment id for wait/signal/shared classes
	cls      mClass
	isStore  bool
	branches bool // interp.Branches(in): whether Step reports Branched
	added    bool // compiler-added (Origin < 0, non-sync): counts as AddedInstr overhead
	nuses    uint8
	uses     [2]ir.Reg
	more     []ir.Reg // register operands beyond the first two (calls)
}

// decodeInstr derives the metadata the reference stepper re-computes per
// dynamic instruction.
func decodeInstr(in *ir.Instr, lastValDefs map[int32]ir.Reg) instrMeta {
	m := instrMeta{
		lat:     cpu.Latency(in.Op),
		dst:     in.Def(),
		lastVal: ir.NoReg,
		seg:     int32(in.Seg),
	}
	switch {
	case in.Op == ir.OpWait:
		m.cls = clsWait
	case in.Op == ir.OpSignal:
		m.cls = clsSignal
	case in.Op.IsMem():
		m.isStore = in.Op == ir.OpStore
		if in.SharedSeg >= 0 {
			m.cls = clsShared
			m.seg = int32(in.SharedSeg)
		} else {
			m.cls = clsPriv
		}
	default:
		m.cls = clsOther
		if in.Op == ir.OpCall && in.Extern != nil && in.Extern.Latency > 0 {
			m.lat = int64(in.Extern.Latency)
		}
	}
	m.branches = interp.Branches(in)
	var scratch [8]ir.Reg
	for _, reg := range in.Uses(scratch[:0]) {
		if m.nuses < 2 {
			m.uses[m.nuses] = reg
		} else {
			m.more = append(m.more, reg)
		}
		m.nuses++
	}
	m.added = in.Origin < 0 && !in.Op.IsSync()
	if lastValDefs != nil {
		if reg, ok := lastValDefs[in.UID]; ok {
			m.lastVal = reg
		}
	}
	return m
}

// metaReady mirrors cpu.Core.OpReady over pre-decoded operands.
func metaReady(core *cpu.Core, m *instrMeta) int64 {
	switch m.nuses {
	case 0:
		return 0
	case 1:
		return core.RegReady(m.uses[0])
	default:
		t := core.RegReady(m.uses[0])
		if v := core.RegReady(m.uses[1]); v > t {
			t = v
		}
		for _, reg := range m.more {
			if v := core.RegReady(reg); v > t {
				t = v
			}
		}
		return t
	}
}

// metaFor returns the decoded metadata for a block, decoding on first
// touch. lastValDefs must be the owning loop's map for body blocks (UIDs
// are program-unique, so passing a map to unrelated blocks is harmless).
func (r *runner) metaFor(b *ir.Block, lastValDefs map[int32]ir.Reg) []instrMeta {
	if r.decoded == nil {
		r.decoded = map[*ir.Block][]instrMeta{}
	}
	if ms, ok := r.decoded[b]; ok {
		return ms
	}
	ms := make([]instrMeta, len(b.Instrs))
	for i := range b.Instrs {
		ms[i] = decodeInstr(&b.Instrs[i], lastValDefs)
	}
	r.decoded[b] = ms
	return ms
}

// loopStatic caches the per-loop facts the reference stepper re-derives
// per invocation.
type loopStatic struct {
	usedSegs    []int // sorted segment ids that signal in the body
	lastValDefs map[int32]ir.Reg
}

func (r *runner) staticFor(pl *hcc.ParallelLoop) *loopStatic {
	if r.loops == nil {
		r.loops = map[*hcc.ParallelLoop]*loopStatic{}
	}
	if ls, ok := r.loops[pl]; ok {
		return ls
	}
	ls := &loopStatic{lastValDefs: map[int32]ir.Reg{}}
	segs := map[int]bool{}
	for _, b := range pl.Body.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpSignal {
				segs[b.Instrs[i].Seg] = true
			}
		}
	}
	for s := range segs {
		ls.usedSegs = append(ls.usedSegs, s)
	}
	sort.Ints(ls.usedSegs)
	for reg, uids := range pl.LastValue {
		for _, uid := range uids {
			ls.lastValDefs[uid] = reg
		}
	}
	r.loops[pl] = ls
	return ls
}

// segScratch replaces the per-iteration waitDone/sigCount maps with
// epoch-stamped slices: bumping the epoch invalidates every entry in
// O(1), so each iteration starts from the empty state without clearing.
type segScratch struct {
	epoch  int64
	waitEp []int64
	sigEp  []int64
	sigCnt []int32
}

func (s *segScratch) ensure(n int) {
	for len(s.waitEp) < n {
		s.waitEp = append(s.waitEp, 0)
		s.sigEp = append(s.sigEp, 0)
		s.sigCnt = append(s.sigCnt, 0)
	}
}

// ensurePerCore sizes the runner's reusable per-core state.
func (r *runner) ensurePerCore(n int) {
	if len(r.parRegs) >= n {
		return
	}
	r.parRegs = make([][]int64, n)
	r.parCores = make([]*cpu.Core, n)
	r.coreTime = make([]int64, n)
	r.ranReal = make([]bool, n)
	r.stopped = make([]bool, n)
	r.bctxs = make([]*interp.Context, n)
}

// regBuf returns core c's register file sized exactly to n and zeroed,
// reusing its backing array.
func (r *runner) regBuf(c, n int) []int64 {
	buf := r.parRegs[c]
	if cap(buf) < n {
		buf = make([]int64, n)
	} else {
		buf = buf[:n]
		clear(buf)
	}
	r.parRegs[c] = buf
	return buf
}

// convBuf returns the conventional-sync prefix-max slice sized exactly
// to n and zeroed.
func (r *runner) convBuf(n int) []int64 {
	if cap(r.convSig) < n {
		r.convSig = make([]int64, n)
	} else {
		r.convSig = r.convSig[:n]
		clear(r.convSig)
	}
	return r.convSig
}

// ringFor returns a ring for a loop with numSegs segments, pooled per
// segment count (the configuration is constant within a run).
func (r *runner) ringFor(cfg ringcache.Config, numSegs int) *ringcache.Ring {
	if r.rings == nil {
		r.rings = map[int]*ringcache.Ring{}
	}
	if ring, ok := r.rings[numSegs]; ok {
		ring.Reset(numSegs)
		return ring
	}
	ring := ringcache.New(cfg, numSegs)
	r.rings[numSegs] = ring
	return ring
}

// hierKey identifies a pooled hierarchy shape.
type hierKey struct {
	cores int
	cfg   memsys.Config
}

// hierPools maps hierKey -> *sync.Pool of *mem.Hierarchy. Hierarchies
// dominate per-run allocation (the L2 alone is >100k lines); pooling
// them across runs — including runs on other goroutines — is the
// single biggest allocation win.
var hierPools sync.Map

func hierFromPool(cores int, cfg memsys.Config) *memsys.Hierarchy {
	key := hierKey{cores: cores, cfg: cfg}
	if p, ok := hierPools.Load(key); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			h := v.(*memsys.Hierarchy)
			h.Reset()
			return h
		}
	}
	return memsys.NewHierarchy(cores, cfg)
}

// hierToPool returns a hierarchy to its shape's pool.
func hierToPool(h *memsys.Hierarchy, cores int, cfg memsys.Config) {
	if h == nil {
		return
	}
	key := hierKey{cores: cores, cfg: cfg}
	p, ok := hierPools.Load(key)
	if !ok {
		p, _ = hierPools.LoadOrStore(key, &sync.Pool{})
	}
	p.(*sync.Pool).Put(h)
}

// reclaimHier returns the runner's hierarchy to the pool (fast path
// only; the reference stepper keeps its fresh allocation).
func (r *runner) reclaimHier() {
	if r.hier == nil || r.slow {
		return
	}
	hierToPool(r.hier, r.arch.Cores, r.arch.Mem)
	r.hier = nil
}

// runSequentialFast is runSequential over pre-decoded metadata.
func (r *runner) runSequentialFast(entry *ir.Function, args []int64) error {
	core := cpu.NewCore(r.arch.Core, r.maxRegs)
	core.Reset(0)
	ctx := interp.NewContext(r.prog, r.mem, entry, args...)

	var curBlk *ir.Block
	var meta []instrMeta
	var recBase uint32
	branchCost := int64(r.arch.Core.BranchCost)
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
		if blk != curBlk {
			curBlk, meta = blk, r.metaFor(blk, nil)
			if r.rec != nil {
				recBase = r.rec.baseFor(blk, meta)
			}
		}
		m := &meta[idx]
		lat := m.lat
		if m.cls == clsShared || m.cls == clsPriv {
			addr := ctx.EffectiveAddr(&blk.Instrs[idx])
			lat = r.memLat(0, addr, m.isStore)
			if r.rec != nil {
				r.rec.addr(addr, false)
			}
		}
		if r.rec != nil {
			r.rec.note(recBase, idx)
		}
		issue, _ := core.IssueReg(m.dst, r.now, metaReady(core, m), lat)
		info := ctx.Step()
		r.steps++
		r.res.Instrs++
		if m.branches {
			r.now = issue + branchCost
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

// runIterationFast is runIteration over pre-decoded metadata and reused
// state. Every timing expression matches the reference stepper exactly.
func (r *runner) runIterationFast(pl *hcc.ParallelLoop, ls *loopStatic,
	ring *ringcache.Ring, convSig []int64, rf []int64, core *cpu.Core,
	coreTime *int64, c int, iter int64, c2c, l1 int64,
	lastW map[int64]lastWrite, lastVals map[ir.Reg]lastValRec) (int64, error) {

	body := pl.Body
	bctx := r.bctxs[c]
	if bctx == nil {
		bctx = interp.NewContextWithRegs(r.prog, r.mem, body, rf, iter)
		r.bctxs[c] = bctx
	} else {
		bctx.Restart(body, rf, iter)
	}
	t := *coreTime
	scr := &r.scr
	scr.epoch++
	ep := scr.epoch
	activeSegs := 0
	var status int64 = -1
	branchCost := int64(r.arch.Core.BranchCost)

	var curBlk *ir.Block
	var meta []instrMeta
	var recBase uint32
	for !bctx.Done() {
		if r.steps >= r.check {
			if err := r.checkStep(); err != nil {
				return 0, err
			}
		}
		_, blk, idx := bctx.Frame()
		if blk != curBlk {
			curBlk, meta = blk, r.metaFor(blk, ls.lastValDefs)
			if r.rec != nil {
				recBase = r.rec.baseFor(blk, meta)
			}
		}
		m := &meta[idx]
		if r.rec != nil {
			r.rec.note(recBase, idx)
		}

		var issue int64
		switch m.cls {
		case clsWait:
			s := int(m.seg)
			var ready int64
			iss, _ := core.IssueReg(ir.NoReg, t, 0, 1)
			if r.arch.DecoupleSync {
				ready = ring.WaitReady(s, c, iss+1)
			} else {
				ready = iss + 1 + c2c
				if convSig[s] > 0 {
					ready = max(ready, convSig[s]+2*c2c)
				}
			}
			core.Barrier(ready)
			r.res.Overheads.DependenceWaiting += ready - (iss + 1)
			r.res.Overheads.WaitSignal++
			t = ready
			if scr.waitEp[s] != ep {
				scr.waitEp[s] = ep
				activeSegs++
				r.res.SegEntries++
			}
			issue = iss

		case clsSignal:
			s := int(m.seg)
			iss, _ := core.IssueReg(ir.NoReg, t, 0, 1)
			send := iss + 1
			if r.arch.DecoupleSync {
				ring.Signal(s, c, send)
			} else {
				send += l1
				if send > convSig[s] {
					convSig[s] = send
				}
			}
			if scr.sigEp[s] != ep {
				scr.sigEp[s] = ep
				scr.sigCnt[s] = 0
			}
			scr.sigCnt[s]++
			r.res.Overheads.WaitSignal++
			if scr.waitEp[s] == ep && activeSegs > 0 {
				activeSegs--
			}
			t = iss
			issue = iss

		case clsShared:
			s := int(m.seg)
			in := &curBlk.Instrs[idx]
			addr := bctx.EffectiveAddr(in)
			write := m.isStore
			// Compiler-guarantee validation.
			if s >= len(scr.waitEp) || scr.waitEp[s] != ep {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("shared access (seg %d) before wait: %s", s, in.String())}
			}
			if w, ok := lastW[addr]; ok && w.iter < iter && w.seg != s {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("addr %d crosses segments %d and %d", addr, w.seg, s)}
			}
			if r.rec != nil {
				r.rec.addr(addr, pl.SlotAddrs[addr])
			}
			if ring != nil && r.decoupled(pl, addr) {
				iss, _ := core.IssueReg(m.dst, t, metaReady(core, m), 1)
				if write {
					ring.Store(c, addr, iss+1)
				} else {
					done := ring.Load(c, addr, iss+1)
					core.SetRegReady(m.dst, done)
					r.res.Overheads.Communication += max(0, done-(iss+2))
				}
				issue = iss
			} else {
				lat := r.memLat(c, addr, write)
				iss, _ := core.IssueReg(m.dst, t, metaReady(core, m), lat)
				r.res.Overheads.Communication += max(0, lat-l1)
				issue = iss
			}
			if write {
				lastW[addr] = lastWrite{iter: iter, seg: s}
			}

		case clsPriv:
			in := &curBlk.Instrs[idx]
			addr := bctx.EffectiveAddr(in)
			write := m.isStore
			if w, ok := lastW[addr]; ok && w.iter < iter && (write || w.seg >= 0) {
				return 0, &ValidationError{Loop: pl.ID, Iter: iter,
					Msg: fmt.Sprintf("private access to shared addr %d (writer iter %d seg %d)", addr, w.iter, w.seg)}
			}
			if r.rec != nil {
				r.rec.addr(addr, false)
			}
			lat := r.memLat(c, addr, write)
			iss, _ := core.IssueReg(m.dst, t, metaReady(core, m), lat)
			r.res.Overheads.Memory += max(0, lat-l1)
			if write {
				lastW[addr] = lastWrite{iter: iter, seg: -1}
			}
			issue = iss

		default:
			iss, _ := core.IssueReg(m.dst, t, metaReady(core, m), m.lat)
			issue = iss
		}

		if m.added {
			r.res.Overheads.AddedInstr++
		}
		if activeSegs > 0 {
			r.res.SeqSegInstrs++
		}

		info := bctx.Step()
		r.steps++
		r.res.Instrs++
		r.res.ParallelInstrs++

		if m.lastVal != ir.NoReg {
			if rec, seen := lastVals[m.lastVal]; !seen || iter >= rec.iter {
				lastVals[m.lastVal] = lastValRec{iter: iter, val: rf[m.lastVal]}
			}
		}

		if m.branches {
			t = issue + branchCost
		} else {
			t = issue
		}
		if info.Returned {
			status = info.RetValue
		}
	}

	// Exactly-once signalling per used segment.
	for _, s := range ls.usedSegs {
		var cnt int32
		if scr.sigEp[s] == ep {
			cnt = scr.sigCnt[s]
		}
		if cnt != 1 {
			return 0, &ValidationError{Loop: pl.ID, Iter: iter,
				Msg: fmt.Sprintf("segment %d signalled %d times", s, cnt)}
		}
	}
	*coreTime = t + 1
	return status, nil
}
