package hcc

import (
	"fmt"
	"math"
	"sort"

	"helixrc/internal/cfg"
	"helixrc/internal/induction"
	"helixrc/internal/ir"
)

// generate clones a selected loop into a per-iteration body function and
// produces the ParallelLoop plan. The body's single parameter is the
// iteration index; it returns 0 (ran), 1 (not run) or 2+k (exited via
// edge k). compileWith passes only loops with one latch and no return
// or allocation. The body, its type and its control and slot globals go
// into prog, the compile's extension of its input; the loop's own
// function and blocks, its graph g and liveness lv, and classes are
// only read.
func generate(prog *ir.Program, fn *ir.Function, g *cfg.Graph, lv *cfg.Liveness, loop *cfg.Loop,
	level Level, seg *segmentation, classes map[ir.Reg]induction.Info, id int) (*ParallelLoop, error) {

	pl := &ParallelLoop{
		ID: id, Fn: fn, Loop: loop, Header: loop.Header,
		SlotOf:     map[ir.Reg]int64{},
		SlotAddrs:  map[int64]bool{},
		Recompute:  map[ir.Reg]RecomputeRule{},
		Reductions: map[ir.Reg]induction.ReduceKind{},
		LastValue:  map[ir.Reg][]int32{},
	}
	pl.Counted = isCounted(g, loop, classes)

	body := prog.NewFunction(fmt.Sprintf("%s$loop%d$body", fn.Name, id), 0)
	body.NumRegs = fn.NumRegs
	body.RegsFrom = fn
	iter := body.NewReg()
	body.Params = []ir.Reg{iter}
	pl.Body = body
	pl.IterParam = iter

	helixType := prog.NewType(fmt.Sprintf("helix.loop%d", id))

	// ---- clone the loop body ---------------------------------------------
	blockMap := map[*ir.Block]*ir.Block{}
	for _, b := range loop.Blocks {
		nb := &ir.Block{Name: b.Name + ".c", Index: len(body.Blocks)}
		body.Blocks = append(body.Blocks, nb)
		blockMap[b] = nb
	}
	var latchRet *ir.Block
	getLatchRet := func() *ir.Block {
		if latchRet == nil {
			latchRet = &ir.Block{Name: "iter.done", Index: len(body.Blocks)}
			ret := ir.NewInstr(ir.OpRet)
			ret.A, ret.HasA = ir.C(0), true
			latchRet.Instrs = append(latchRet.Instrs, ret)
			body.Blocks = append(body.Blocks, latchRet)
		}
		return latchRet
	}
	if !pl.Counted {
		ctl := prog.AddGlobal(fmt.Sprintf("helix.ctl%d", id), 1, helixType)
		ctl.Init = []int64{math.MaxInt64}
		pl.CtlAddr = ctl.Addr
	}
	exitIdx := map[*ir.Block]int{}
	exitBlk := map[*ir.Block]*ir.Block{}
	getExit := func(target *ir.Block) *ir.Block {
		if eb, ok := exitBlk[target]; ok {
			return eb
		}
		k := len(pl.ExitTargets)
		pl.ExitTargets = append(pl.ExitTargets, target)
		exitIdx[target] = k
		eb := &ir.Block{Name: fmt.Sprintf("exit.%d", k), Index: len(body.Blocks)}
		if !pl.Counted {
			// ctl = iter + 1: iterations >= ctl must not run.
			ca := ir.NewInstr(ir.OpConst)
			ca.Dst = body.NewReg()
			ca.A = ir.C(pl.CtlAddr)
			nx := ir.NewInstr(ir.OpAdd)
			nx.Dst = body.NewReg()
			nx.A, nx.B = ir.R(iter), ir.C(1)
			st := ir.NewInstr(ir.OpStore)
			st.A, st.B = ir.R(ca.Dst), ir.R(nx.Dst)
			st.Type = helixType
			st.Path = "helix.ctl"
			st.SharedSeg = 0
			eb.Instrs = append(eb.Instrs, ca, nx, st)
		}
		ret := ir.NewInstr(ir.OpRet)
		ret.A, ret.HasA = ir.C(int64(2+k)), true
		eb.Instrs = append(eb.Instrs, ret)
		body.Blocks = append(body.Blocks, eb)
		exitBlk[target] = eb
		return eb
	}
	remap := func(t *ir.Block) *ir.Block {
		switch {
		case t == loop.Header:
			return getLatchRet()
		case !loop.Contains(t):
			return getExit(t)
		default:
			return blockMap[t]
		}
	}
	for _, b := range loop.Blocks {
		nb := blockMap[b]
		for i := range b.Instrs {
			in := b.Instrs[i] // copy
			in.Origin = in.UID
			in.UID = -1
			if id, ok := seg.memberSeg[b.Instrs[i].UID]; ok && in.Op.IsMem() {
				in.SharedSeg = id
			}
			switch in.Op {
			case ir.OpBr:
				in.Target = remap(in.Target)
			case ir.OpCondBr:
				in.Target = remap(in.Target)
				in.Els = remap(in.Els)
			}
			nb.Instrs = append(nb.Instrs, in)
		}
	}

	// ---- recomputation rules + prologue ----------------------------------
	bb := ir.NewBuilder(prog, body)
	bb.SetBlock(body.Entry())
	emitRecompute(bb, pl, iter, classes)
	headerClone := blockMap[loop.Header]
	if pl.Counted {
		bb.Br(headerClone)
	} else {
		notrun := bb.NewBlock("not.run")
		ca := bb.Const(pl.CtlAddr)
		lv := bb.Load(ir.R(ca), 0, ir.MemAttrs{Type: helixType, Path: "helix.ctl"})
		body.Entry().Instrs[len(body.Entry().Instrs)-1].SharedSeg = 0
		c := bb.Bin(ir.OpCmpGE, ir.R(iter), ir.R(lv))
		bb.CondBr(ir.R(c), notrun, headerClone)
		bb.SetBlock(notrun)
		bb.Ret(ir.C(1))
	}

	// Reductions and last-value bookkeeping.
	liveOut := liveOutRegs(lv, loop)
	origLastDefs := map[int32]ir.Reg{}
	for r, info := range classes {
		switch info.Class {
		case induction.ClassAccum:
			pl.Reductions[r] = info.Reduce
		case induction.ClassLastValue:
			for _, uid := range info.DefUIDs {
				origLastDefs[uid] = r
			}
		case induction.ClassPrivate:
			if liveOut[r] {
				for _, uid := range info.DefUIDs {
					origLastDefs[uid] = r
				}
			}
		}
		if liveOut[r] {
			pl.LiveOutRegs = append(pl.LiveOutRegs, r)
		}
	}
	sort.Slice(pl.LiveOutRegs, func(i, j int) bool { return pl.LiveOutRegs[i] < pl.LiveOutRegs[j] })

	// ---- shared register demotion to slots -------------------------------
	insertSlots(prog, body, blockMap, loop, seg, pl, helixType, id)

	// ---- wait/signal placement -------------------------------------------
	// The rest of prog was verified before (Prepare) or is an earlier
	// body: only the new body needs checking.
	if err := prog.VerifyFunc(body); err != nil {
		return nil, fmt.Errorf("hcc: body malformed before placement: %w", err)
	}
	placeSync(body, level, seg.numSegs, pl)

	if err := prog.VerifyFunc(body); err != nil {
		return nil, fmt.Errorf("hcc: body malformed after placement: %w", err)
	}
	prog.AssignUIDs()

	// Map last-value defs to body UIDs.
	for _, b := range body.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Origin >= 0 {
				if r, ok := origLastDefs[in.Origin]; ok && in.Def() == r {
					pl.LastValue[r] = append(pl.LastValue[r], in.UID)
				}
			}
		}
	}
	pl.NumSegs = seg.numSegs
	return pl, nil
}

// emitRecompute appends induction recomputation code to the prologue and
// records the rules for the simulator.
func emitRecompute(bb *ir.Builder, pl *ParallelLoop, iter ir.Reg, classes map[ir.Reg]induction.Info) {
	// Deterministic order for reproducible codegen.
	var regs []ir.Reg
	for r := range classes {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })

	shadows := map[ir.Reg]ir.Reg{}
	shadowOf := func(r ir.Reg) ir.Reg {
		if s, ok := shadows[r]; ok {
			return s
		}
		s := bb.F.NewReg()
		shadows[r] = s
		return s
	}
	for _, r := range regs {
		info := classes[r]
		switch info.Class {
		case induction.ClassInduction:
			sh := shadowOf(r)
			t := bb.Mul(info.Step, ir.R(iter))
			op := ir.OpAdd
			if info.Negate {
				op = ir.OpSub
			}
			bb.BinTo(r, op, ir.R(sh), ir.R(t))
			pl.Recompute[r] = RecomputeRule{Kind: RecLinear, Shadow: sh, Step: info.Step, Negate: info.Negate}
		case induction.ClassPoly2:
			sh := shadowOf(r)
			ish := shadowOf(info.StepReg)
			t1 := bb.Mul(ir.R(ish), ir.R(iter))
			u := bb.Sub(ir.R(iter), ir.C(1))
			v := bb.Mul(ir.R(iter), ir.R(u))
			w := bb.Bin(ir.OpShr, ir.R(v), ir.C(1))
			t2 := bb.Mul(info.Step2, ir.R(w))
			var q ir.Reg
			if info.Step2Neg {
				q = bb.Sub(ir.R(t1), ir.R(t2))
			} else {
				q = bb.Add(ir.R(t1), ir.R(t2))
			}
			bb.BinTo(r, ir.OpAdd, ir.R(sh), ir.R(q))
			pl.Recompute[r] = RecomputeRule{
				Kind: RecPoly2, Shadow: sh, InnerShadow: ish,
				Step: ir.R(info.StepReg), Step2: info.Step2, Step2Negate: info.Step2Neg,
			}
		}
	}
}

// isCounted reports whether every core can evaluate the loop's exit
// condition independently: all exits leave from the header, the header is
// pure (no memory, no calls), and the condition depends only on induction
// or invariant registers.
func isCounted(g *cfg.Graph, loop *cfg.Loop, classes map[ir.Reg]induction.Info) bool {
	for _, e := range loop.Exits {
		if e.From != loop.Header {
			return false
		}
	}
	h := loop.Header
	defsInHeader := map[ir.Reg]bool{}
	for i := range h.Instrs {
		in := &h.Instrs[i]
		switch {
		case in.Op.IsMem(), in.Op == ir.OpCall, in.Op == ir.OpAlloc:
			return false
		case in.Op.IsBranch():
			// terminator, checked below
		case in.Op.IsSync():
			return false
		}
		if d := in.Def(); d != ir.NoReg {
			if info, carried := classes[d]; carried &&
				info.Class != induction.ClassInduction && info.Class != induction.ClassPoly2 &&
				info.Class != induction.ClassPrivate {
				// An accumulator or shared def in the header would be
				// re-executed by overrun iterations.
				return false
			}
			defsInHeader[d] = true
		}
	}
	// Trace the condition's inputs: registers read in the header that are
	// defined outside it must be recomputable or invariant.
	definedInLoop := map[ir.Reg]bool{}
	for _, b := range loop.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				definedInLoop[d] = true
			}
		}
	}
	for i := range h.Instrs {
		var scratch [4]ir.Reg
		for _, u := range h.Instrs[i].Uses(scratch[:0]) {
			if defsInHeader[u] || !definedInLoop[u] {
				continue // header-local temp or loop invariant
			}
			info, carried := classes[u]
			if !carried {
				// Defined in the loop but not carried: its value at the
				// header comes from the previous iteration on another
				// core — not independently computable.
				return false
			}
			if info.Class != induction.ClassInduction && info.Class != induction.ClassPoly2 {
				return false
			}
		}
	}
	return true
}

// liveOutRegs returns the registers live at any loop exit target, under
// the liveness lv of the loop's function.
func liveOutRegs(lv *cfg.Liveness, loop *cfg.Loop) map[ir.Reg]bool {
	out := map[ir.Reg]bool{}
	var regs []ir.Reg
	for _, e := range loop.Exits {
		regs = lv.LiveInRegs(regs[:0], e.To)
		for _, r := range regs {
			out[r] = true
		}
	}
	return out
}
