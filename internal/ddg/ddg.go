// Package ddg builds the loop-carried data dependence graph HCC uses to
// form sequential segments: register dependences from liveness and memory
// dependences from the may-alias analysis, measured against the dynamic
// oracle collected by the profiler (for the Figure 2 accuracy experiment).
package ddg

import (
	"sort"

	"helixrc/internal/alias"
	"helixrc/internal/cfg"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
)

// DepKind classifies a dependence edge.
type DepKind int

// Dependence kinds.
const (
	// MemDep is a may dependence between two memory instructions.
	MemDep DepKind = iota
	// CallDep involves an external call treated as touching memory.
	CallDep
)

// MemEdge is one loop-carried may dependence between static instructions.
type MemEdge struct {
	Kind DepKind
	// A and B are the two instructions' UIDs with A <= B.
	A, B int32
}

// LoopInstr locates one instruction that executes within the loop.
type LoopInstr struct {
	Fn    *ir.Function
	Block *ir.Block
	Index int
	In    *ir.Instr
}

// Graph is the dependence summary of one loop.
type Graph struct {
	Fn   *ir.Function
	Loop *cfg.Loop

	// Instrs lists every instruction executed under the loop, including
	// bodies of functions called (transitively) from it.
	Instrs []LoopInstr
	// MemEdges are the loop-carried may memory dependences at the
	// analysis tier.
	MemEdges []MemEdge
	// CarriedRegs are registers live around the backedge and defined in
	// the loop — the loop-carried register dependences before
	// predictability analysis.
	CarriedRegs []ir.Reg
	// LiveIn is the set of registers live at the header (loop inputs).
	LiveIn map[ir.Reg]bool
}

// Build computes the dependence graph for loop under the given alias tier.
func Build(prog *ir.Program, fn *ir.Function, g *cfg.Graph, loop *cfg.Loop, an *alias.Analysis) *Graph {
	return ForLoop(fn, g, cfg.ComputeLiveness(g), loop).WithAlias(g, an)
}

// ForLoop computes the part of loop's dependence graph no alias analysis
// changes: the instructions executed under the loop and its register
// dependences, from lv, the liveness of fn's graph g. Its MemEdges are
// empty; WithAlias adds them.
func ForLoop(fn *ir.Function, g *cfg.Graph, lv *cfg.Liveness, loop *cfg.Loop) *Graph {
	dg := &Graph{Fn: fn, Loop: loop}
	collectInstrs(dg, fn, loop, map[*ir.Function]bool{})

	// Register dependences: live at header, defined inside the loop.
	dg.LiveIn = lv.LiveAtHeader(loop)
	defined := map[ir.Reg]bool{}
	for _, b := range loop.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				defined[d] = true
			}
		}
	}
	for r := range dg.LiveIn {
		if defined[r] {
			dg.CarriedRegs = append(dg.CarriedRegs, r)
		}
	}
	sort.Slice(dg.CarriedRegs, func(i, j int) bool { return dg.CarriedRegs[i] < dg.CarriedRegs[j] })
	return dg
}

// WithAlias returns dg's graph with the loop-carried memory dependences
// an reports, replacing any dg has; g is the graph of the loop's
// function. The result shares dg's instructions and register
// dependences, so one ForLoop serves every alias tier.
func (dg *Graph) WithAlias(g *cfg.Graph, an *alias.Analysis) *Graph {
	out := &Graph{Fn: dg.Fn, Loop: dg.Loop, Instrs: dg.Instrs, CarriedRegs: dg.CarriedRegs, LiveIn: dg.LiveIn}
	fn, loop := dg.Fn, dg.Loop
	// Memory dependences: every pair with at least one write that may
	// alias. A conservative compiler must assume such a pair is carried
	// between all iterations (the paper's Section 3 premise).
	type memRef struct {
		uid   int32
		write bool
		fn    *ir.Function
		in    *ir.Instr
		li    LoopInstr
		aff   affineExpr
	}
	var refs []memRef
	var calls []memRef
	for _, li := range dg.Instrs {
		switch {
		case li.In.Op.IsMem():
			refs = append(refs, memRef{uid: li.In.UID, write: li.In.Op == ir.OpStore, fn: li.Fn, in: li.In, li: li})
		case li.In.Op == ir.OpCall && li.In.Extern != nil:
			calls = append(calls, memRef{uid: li.In.UID, fn: li.Fn, in: li.In, li: li})
		}
	}
	// Induction-based dependence-distance reasoning. Every HCC generation
	// disambiguates classic affine array traffic (a[i] vs a[i+1]); what
	// separates the generations is pointer-analysis precision (the alias
	// tier), which the paper's Figure 2 ladder measures.
	affCtx := newAffineCtx(g, loop)
	for i := range refs {
		if refs[i].fn == fn && loop.Contains(refs[i].li.Block) {
			refs[i].aff = affCtx.addrExpr(refs[i].li)
		}
	}
	for i := 0; i < len(refs); i++ {
		for j := i; j < len(refs); j++ {
			if !refs[i].write && !refs[j].write {
				continue
			}
			if !an.MayAlias(refs[i].uid, refs[j].uid) {
				continue
			}
			if affCtx.provablyIndependent(refs[i].aff, refs[j].aff) {
				continue
			}
			out.MemEdges = append(out.MemEdges, canonEdge(MemDep, refs[i].uid, refs[j].uid))
		}
	}
	// External calls interact with memory according to their effect at
	// this tier.
	for _, c := range calls {
		eff, ok := an.EffectOfCall(c.fn, c.in)
		if !ok || (!eff.Reads && !eff.Writes) {
			continue
		}
		for _, r := range refs {
			if !eff.Writes && !r.write {
				continue
			}
			if eff.ArgSites != nil {
				d := an.DescOf(r.uid)
				if d != nil && !alias.Intersects(eff.ArgSites, d.Pts) {
					continue
				}
			}
			out.MemEdges = append(out.MemEdges, canonEdge(CallDep, c.uid, r.uid))
		}
		// Two clobbering calls also depend on each other.
		for _, c2 := range calls {
			if c2.uid <= c.uid {
				continue
			}
			eff2, ok2 := an.EffectOfCall(c2.fn, c2.in)
			if ok2 && (eff.Writes || eff2.Writes) && (eff.Reads || eff.Writes) && (eff2.Reads || eff2.Writes) {
				out.MemEdges = append(out.MemEdges, canonEdge(CallDep, c.uid, c2.uid))
			}
		}
	}
	dedupEdges(out)
	return out
}

func collectInstrs(dg *Graph, fn *ir.Function, loop *cfg.Loop, seen map[*ir.Function]bool) {
	addBlock := func(f *ir.Function, b *ir.Block) {
		for i := range b.Instrs {
			dg.Instrs = append(dg.Instrs, LoopInstr{Fn: f, Block: b, Index: i, In: &b.Instrs[i]})
		}
	}
	var addFunc func(f *ir.Function)
	addFunc = func(f *ir.Function) {
		if seen[f] {
			return
		}
		seen[f] = true
		for _, b := range f.Blocks {
			addBlock(f, b)
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op == ir.OpCall && in.Callee != nil {
					addFunc(in.Callee)
				}
			}
		}
	}
	for _, b := range loop.Blocks {
		addBlock(fn, b)
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == ir.OpCall && in.Callee != nil {
				addFunc(in.Callee)
			}
		}
	}
}

func canonEdge(k DepKind, a, b int32) MemEdge {
	if a > b {
		a, b = b, a
	}
	return MemEdge{Kind: k, A: a, B: b}
}

func dedupEdges(dg *Graph) {
	seen := map[[2]int32]bool{}
	out := dg.MemEdges[:0]
	for _, e := range dg.MemEdges {
		k := [2]int32{e.A, e.B}
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	dg.MemEdges = out
	sort.Slice(dg.MemEdges, func(i, j int) bool {
		if dg.MemEdges[i].A != dg.MemEdges[j].A {
			return dg.MemEdges[i].A < dg.MemEdges[j].A
		}
		return dg.MemEdges[i].B < dg.MemEdges[j].B
	})
}

// Accuracy scores the dependence graph against the profiler's dynamic
// oracle: the fraction of reported may dependences that actually occurred
// (Figure 2's metric). Reported edges involving calls count as apparent
// dependences that never materialize functionally.
func Accuracy(dg *Graph, lp *interp.LoopProfile) float64 {
	if len(dg.MemEdges) == 0 {
		return 1
	}
	actual := 0
	for _, e := range dg.MemEdges {
		if lp != nil {
			if _, ok := lp.Deps[interp.DepPair{From: e.A, To: e.B}]; ok {
				actual++
			}
		}
	}
	return float64(actual) / float64(len(dg.MemEdges))
}

// ActualEdges returns the subset of reported edges confirmed by the oracle.
func ActualEdges(dg *Graph, lp *interp.LoopProfile) []MemEdge {
	var out []MemEdge
	for _, e := range dg.MemEdges {
		if lp != nil {
			if _, ok := lp.Deps[interp.DepPair{From: e.A, To: e.B}]; ok {
				out = append(out, e)
			}
		}
	}
	return out
}

// Unsound returns oracle dependences the static analysis missed; a correct
// tier ladder must keep this empty (soundness check used in tests).
func Unsound(dg *Graph, lp *interp.LoopProfile) []interp.DepPair {
	if lp == nil {
		return nil
	}
	reported := map[[2]int32]bool{}
	for _, e := range dg.MemEdges {
		reported[[2]int32{e.A, e.B}] = true
	}
	inLoop := map[int32]bool{}
	for _, li := range dg.Instrs {
		inLoop[li.In.UID] = true
	}
	var out []interp.DepPair
	for dp := range lp.Deps {
		if !inLoop[dp.From] || !inLoop[dp.To] {
			continue // dependence observed under a different loop nest
		}
		if !reported[[2]int32{dp.From, dp.To}] {
			out = append(out, dp)
		}
	}
	return out
}
