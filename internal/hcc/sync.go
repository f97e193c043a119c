package hcc

import (
	"fmt"
	"sort"

	"helixrc/internal/cfg"
	"helixrc/internal/ir"
)

// insertSlots demotes each shared register to a memory slot: one load at a
// point dominating every use/def in the body, and a store after each def.
// All slot accesses are tagged with the register's segment so the generic
// wait/signal placement protects them.
func insertSlots(prog *ir.Program, body *ir.Function, blockMap map[*ir.Block]*ir.Block,
	loop *cfg.Loop, seg *segmentation, pl *ParallelLoop, typ ir.TypeID, id int) {

	var regs []ir.Reg
	for r := range seg.regSeg {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	if len(regs) == 0 {
		return
	}

	// Dominators over the body as it stands (waits/signals come later and
	// only refine placement within existing blocks).
	g := cfg.New(body)

	touches := func(in *ir.Instr, r ir.Reg) bool {
		if in.Def() == r {
			return true
		}
		var scratch [4]ir.Reg
		for _, u := range in.Uses(scratch[:0]) {
			if u == r {
				return true
			}
		}
		return false
	}

	for _, r := range regs {
		slot := prog.AddGlobal(fmt.Sprintf("helix.slot%d.r%d", id, r), 1, typ)
		pl.SlotOf[r] = slot.Addr
		pl.SlotAddrs[slot.Addr] = true
		segID := seg.regSeg[r]
		path := fmt.Sprintf("helix.slot%d.r%d", id, r)

		// Blocks (cloned only) that touch r.
		var blocks []*ir.Block
		for _, ob := range loop.Blocks {
			nb := blockMap[ob]
			for i := range nb.Instrs {
				if touches(&nb.Instrs[i], r) {
					blocks = append(blocks, nb)
					break
				}
			}
		}
		if len(blocks) == 0 {
			continue
		}
		l := ncd(g, blocks)

		// Rebuild each touching block with the slot operations in place.
		for _, ob := range loop.Blocks {
			nb := blockMap[ob]
			out := make([]ir.Instr, 0, len(nb.Instrs)+2)
			placedLoad := false
			for i := range nb.Instrs {
				in := nb.Instrs[i]
				if nb == l && !placedLoad && (touches(&in, r) || in.Op.IsBranch()) {
					ld := ir.NewInstr(ir.OpLoad)
					ld.Dst = r
					ld.A = ir.C(slot.Addr)
					ld.Type = typ
					ld.Path = path
					ld.SharedSeg = segID
					out = append(out, ld)
					placedLoad = true
				}
				out = append(out, in)
				if in.Def() == r {
					st := ir.NewInstr(ir.OpStore)
					st.A = ir.C(slot.Addr)
					st.B = ir.R(r)
					st.Type = typ
					st.Path = path
					st.SharedSeg = segID
					out = append(out, st)
				}
			}
			if nb == l && !placedLoad {
				// Block had no touching instruction and no terminator yet
				// (cannot happen after verify), but keep safe.
				ld := ir.NewInstr(ir.OpLoad)
				ld.Dst = r
				ld.A = ir.C(slot.Addr)
				ld.Type = typ
				ld.Path = path
				ld.SharedSeg = segID
				out = append(out, ld)
			}
			nb.Instrs = out
		}
	}
}

// ncd returns the nearest common dominator of blocks.
func ncd(g *cfg.Graph, blocks []*ir.Block) *ir.Block {
	cur := blocks[0]
	for _, b := range blocks[1:] {
		for !g.Dominates(cur, b) {
			cur = g.IDom(cur)
		}
	}
	return cur
}

// placeSync inserts wait and signal instructions for every segment with
// accesses in the body:
//
//   - HCCv3 waits go immediately before the first access of each access
//     block not dominated by another access block (as late as possible).
//   - HCCv1/v2 place one wait at the nearest common dominator of the
//     accesses, hoisted until it dominates every running-path return, so
//     every iteration synchronizes (the paper's pre-decoupling semantics).
//   - Signals are placed on every edge crossing from "can still reach an
//     access" to "cannot" — which yields exactly one signal per segment on
//     every path, signalling as early as each path's last possible access
//     allows (HCCv3's early release falls out naturally; not-run paths
//     signal everything in their first block).
func placeSync(body *ir.Function, level Level, numSegs int, pl *ParallelLoop) {
	g := cfg.New(body)

	type waitPoint struct {
		blk    *ir.Block
		idx    int
		seg    int
		signal bool // inserts a signal instead of a wait
	}
	type edgeKey struct{ from, to *ir.Block }
	var waits []waitPoint
	signalEdges := map[edgeKey][]int{}
	signalBeforeRet := map[*ir.Block][]int{}
	pl.Segments = nil

	accessIdx := func(b *ir.Block, seg int) int {
		for i := range b.Instrs {
			if b.Instrs[i].SharedSeg == seg && b.Instrs[i].Op.IsMem() {
				return i
			}
		}
		return -1
	}

	for s := 0; s < numSegs; s++ {
		var accessBlocks []*ir.Block
		members := 0
		for _, b := range body.Blocks {
			has := false
			for i := range b.Instrs {
				if b.Instrs[i].SharedSeg == s && b.Instrs[i].Op.IsMem() {
					has = true
					members++
				}
			}
			if has {
				accessBlocks = append(accessBlocks, b)
			}
		}
		if len(accessBlocks) == 0 {
			continue
		}

		// canReach: blocks from which an access of s is still reachable
		// within the iteration (body back edges belong to inner loops and
		// participate normally).
		canReach := map[*ir.Block]bool{}
		for _, b := range accessBlocks {
			canReach[b] = true
		}
		for changed := true; changed; {
			changed = false
			for _, b := range body.Blocks {
				if canReach[b] {
					continue
				}
				for _, sc := range g.Succs[b.Index] {
					if canReach[sc] {
						canReach[b] = true
						changed = true
						break
					}
				}
			}
		}

		// Waits.
		if level.EliminatesWaits() {
			for _, b := range accessBlocks {
				dominated := false
				for _, o := range accessBlocks {
					if o != b && g.Dominates(o, b) {
						dominated = true
						break
					}
				}
				if !dominated {
					waits = append(waits, waitPoint{blk: b, idx: accessIdx(b, s), seg: s})
				}
			}
		} else {
			w := ncd(g, accessBlocks)
			for !dominatesRunningRets(g, body, w) && g.IDom(w) != nil {
				w = g.IDom(w)
			}
			idx := accessIdx(w, s)
			if idx < 0 {
				idx = len(w.Instrs) - 1 // before the terminator
			}
			waits = append(waits, waitPoint{blk: w, idx: idx, seg: s})
		}

		// Signals: crossing edges, access-bearing return blocks, and —
		// the latency-critical case — right after the last access when
		// every path out of the block leaves the segment's region, so the
		// successor iteration is released as early as possible.
		span := 0
		for _, b := range body.Blocks {
			if canReach[b] {
				span += len(b.Instrs)
			}
			if !canReach[b] {
				continue
			}
			t := b.Terminator()
			if t != nil && t.Op == ir.OpRet {
				signalBeforeRet[b] = append(signalBeforeRet[b], s)
				continue
			}
			allCross := true
			anyCross := false
			for _, sc := range g.Succs[b.Index] {
				if canReach[sc] {
					allCross = false
				} else {
					anyCross = true
				}
			}
			if !anyCross {
				continue
			}
			lastAcc := -1
			for i := range b.Instrs {
				if b.Instrs[i].SharedSeg == s && b.Instrs[i].Op.IsMem() {
					lastAcc = i
				}
			}
			if allCross && lastAcc >= 0 {
				// Hoist the signal to just after the block's last access.
				waits = append(waits, waitPoint{blk: b, idx: lastAcc + 1, seg: s, signal: true})
				continue
			}
			for _, sc := range g.Succs[b.Index] {
				if !canReach[sc] {
					signalEdges[edgeKey{b, sc}] = append(signalEdges[edgeKey{b, sc}], s)
				}
			}
		}
		pl.Segments = append(pl.Segments, SegmentInfo{ID: s, MemberInstrs: members, SpanInstrs: span})
	}

	// Apply waits: per block, descending index so positions stay valid.
	byBlock := map[*ir.Block][]waitPoint{}
	for _, w := range waits {
		byBlock[w.blk] = append(byBlock[w.blk], w)
	}
	for blk, ws := range byBlock {
		sort.Slice(ws, func(i, j int) bool {
			if ws[i].idx != ws[j].idx {
				return ws[i].idx > ws[j].idx
			}
			return ws[i].seg > ws[j].seg
		})
		for _, w := range ws {
			op := ir.OpWait
			if w.signal {
				op = ir.OpSignal
			}
			in := ir.NewInstr(op)
			in.Seg = w.seg
			idx := w.idx
			if idx < 0 {
				idx = 0
			}
			blk.Instrs = append(blk.Instrs[:idx], append([]ir.Instr{in}, blk.Instrs[idx:]...)...)
		}
	}

	// Apply ret-block signals (before the terminator).
	for blk, segs := range signalBeforeRet {
		sort.Ints(segs)
		term := blk.Instrs[len(blk.Instrs)-1]
		blk.Instrs = blk.Instrs[:len(blk.Instrs)-1]
		for _, s := range segs {
			in := ir.NewInstr(ir.OpSignal)
			in.Seg = s
			blk.Instrs = append(blk.Instrs, in)
		}
		blk.Instrs = append(blk.Instrs, term)
	}

	// Apply edge signals via edge splitting; one split block per edge.
	type splitInfo struct {
		key  edgeKey
		segs []int
	}
	var splits []splitInfo
	for k, segs := range signalEdges {
		sort.Ints(segs)
		splits = append(splits, splitInfo{key: k, segs: segs})
	}
	sort.Slice(splits, func(i, j int) bool {
		if splits[i].key.from.Index != splits[j].key.from.Index {
			return splits[i].key.from.Index < splits[j].key.from.Index
		}
		return splits[i].key.to.Index < splits[j].key.to.Index
	})
	for _, sp := range splits {
		nb := &ir.Block{
			Name:  fmt.Sprintf("sig.%s.%s", sp.key.from.Name, sp.key.to.Name),
			Index: len(body.Blocks),
		}
		for _, s := range sp.segs {
			in := ir.NewInstr(ir.OpSignal)
			in.Seg = s
			nb.Instrs = append(nb.Instrs, in)
		}
		br := ir.NewInstr(ir.OpBr)
		br.Target = sp.key.to
		nb.Instrs = append(nb.Instrs, br)
		body.Blocks = append(body.Blocks, nb)

		t := sp.key.from.Terminator()
		switch t.Op {
		case ir.OpBr:
			t.Target = nb
		case ir.OpCondBr:
			if t.Target == sp.key.to {
				t.Target = nb
			}
			if t.Els == sp.key.to {
				t.Els = nb
			}
		}
	}
}

// dominatesRunningRets reports whether w dominates every return block on a
// running-iteration path (latch return and exits; the not-run return is
// excluded — its path never enters the iteration proper).
func dominatesRunningRets(g *cfg.Graph, body *ir.Function, w *ir.Block) bool {
	for _, b := range body.Blocks {
		if !g.Reachable(b) || b.Name == "not.run" {
			continue
		}
		if t := b.Terminator(); t != nil && t.Op == ir.OpRet {
			if !g.Dominates(w, b) {
				return false
			}
		}
	}
	return true
}
