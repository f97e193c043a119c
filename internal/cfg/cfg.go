// Package cfg computes control-flow structure over the IR: predecessor and
// successor maps, dominators, natural loops and the loop nesting graph that
// HCCv3 annotates with profile data to choose loops to parallelize.
package cfg

import (
	"fmt"
	"sort"

	"helixrc/internal/ir"
)

// Graph is the control-flow graph of one function.
type Graph struct {
	Fn    *ir.Function
	Succs [][]*ir.Block
	Preds [][]*ir.Block
	// RPO lists blocks in reverse postorder from the entry.
	RPO []*ir.Block
	// rpoIndex[b.Index] is the position of b in RPO, or -1 if unreachable.
	rpoIndex []int
	// idom[b.Index] is the immediate dominator, nil for entry/unreachable.
	idom []*ir.Block
}

// New builds the CFG for fn. The function must be verified, so every
// Block.Index is the block's position; New only reads fn.
func New(fn *ir.Function) *Graph {
	n := len(fn.Blocks)
	g := &Graph{
		Fn:       fn,
		Succs:    make([][]*ir.Block, n),
		Preds:    make([][]*ir.Block, n),
		rpoIndex: make([]int, n),
		idom:     make([]*ir.Block, n),
	}
	for _, b := range fn.Blocks {
		g.Succs[b.Index] = b.Succs(nil)
	}
	for _, b := range fn.Blocks {
		for _, s := range g.Succs[b.Index] {
			g.Preds[s.Index] = append(g.Preds[s.Index], b)
		}
	}
	g.computeRPO()
	g.computeDominators()
	return g
}

func (g *Graph) computeRPO() {
	n := len(g.Fn.Blocks)
	seen := make([]bool, n)
	post := make([]*ir.Block, 0, n)
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b.Index] = true
		for _, s := range g.Succs[b.Index] {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Fn.Entry())
	for i := range g.rpoIndex {
		g.rpoIndex[i] = -1
	}
	g.RPO = make([]*ir.Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		g.rpoIndex[post[i].Index] = len(g.RPO)
		g.RPO = append(g.RPO, post[i])
	}
}

// Reachable reports whether b is reachable from the entry.
func (g *Graph) Reachable(b *ir.Block) bool { return g.rpoIndex[b.Index] >= 0 }

// computeDominators runs the Cooper-Harvey-Kennedy iterative algorithm.
func (g *Graph) computeDominators() {
	entry := g.Fn.Entry()
	g.idom[entry.Index] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range g.RPO {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range g.Preds[b.Index] {
				if !g.Reachable(p) || g.idom[p.Index] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = g.intersect(p, newIdom)
				}
			}
			if newIdom != nil && g.idom[b.Index] != newIdom {
				g.idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	// Entry's idom is conventionally nil for callers.
	g.idom[entry.Index] = nil
}

func (g *Graph) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for g.rpoIndex[a.Index] > g.rpoIndex[b.Index] {
			a = g.idom[a.Index]
		}
		for g.rpoIndex[b.Index] > g.rpoIndex[a.Index] {
			b = g.idom[b.Index]
		}
	}
	return a
}

// IDom returns the immediate dominator of b (nil for the entry block).
func (g *Graph) IDom(b *ir.Block) *ir.Block { return g.idom[b.Index] }

// Dominates reports whether a dominates b (reflexive).
func (g *Graph) Dominates(a, b *ir.Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = g.idom[b.Index]
	}
	return false
}

// Loop is a natural loop: a header plus the body blocks that reach a back
// edge without leaving the header's dominance region.
type Loop struct {
	ID     int
	Header *ir.Block
	// Latches are the sources of back edges into Header.
	Latches []*ir.Block
	// Blocks is the loop body including the header.
	Blocks []*ir.Block
	// Exits are edges (From inside, To outside).
	Exits []Edge
	// Parent is the innermost enclosing loop, nil for top level.
	Parent   *Loop
	Children []*Loop
	inBody   map[int]bool
}

// Edge is a CFG edge.
type Edge struct {
	From *ir.Block
	To   *ir.Block
}

// Contains reports whether b is part of the loop body.
func (l *Loop) Contains(b *ir.Block) bool { return l.inBody[b.Index] }

// Depth returns the nesting depth (outermost loops have depth 1).
func (l *Loop) Depth() int {
	d := 0
	for p := l; p != nil; p = p.Parent {
		d++
	}
	return d
}

// String identifies the loop by its header.
func (l *Loop) String() string {
	return fmt.Sprintf("loop#%d@%s", l.ID, l.Header.Name)
}

// Forest is the loop nesting graph of a function.
type Forest struct {
	Graph *Graph
	// Loops lists all loops, outer before inner.
	Loops []*Loop
	// Roots lists the top-level loops.
	Roots []*Loop
	// loopOf[b.Index] is the innermost loop containing b, nil if none.
	loopOf []*Loop
}

// InnermostLoop returns the innermost loop containing b, or nil.
func (f *Forest) InnermostLoop(b *ir.Block) *Loop { return f.loopOf[b.Index] }

// FindLoops identifies natural loops and their nesting.
func FindLoops(g *Graph) *Forest {
	f := &Forest{Graph: g, loopOf: make([]*Loop, len(g.Fn.Blocks))}

	// Collect back edges: latch -> header where header dominates latch.
	headers := map[*ir.Block][]*ir.Block{}
	var headerOrder []*ir.Block
	for _, b := range g.RPO {
		for _, s := range g.Succs[b.Index] {
			if g.Dominates(s, b) {
				if _, ok := headers[s]; !ok {
					headerOrder = append(headerOrder, s)
				}
				headers[s] = append(headers[s], b)
			}
		}
	}

	for _, h := range headerOrder {
		l := &Loop{
			ID:      len(f.Loops),
			Header:  h,
			Latches: headers[h],
			inBody:  map[int]bool{h.Index: true},
		}
		// Body = header + all blocks reaching a latch backwards without
		// passing through the header.
		work := append([]*ir.Block(nil), l.Latches...)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			if l.inBody[b.Index] {
				continue
			}
			l.inBody[b.Index] = true
			for _, p := range g.Preds[b.Index] {
				if g.Reachable(p) {
					work = append(work, p)
				}
			}
		}
		for _, b := range g.RPO {
			if l.inBody[b.Index] {
				l.Blocks = append(l.Blocks, b)
			}
		}
		for _, b := range l.Blocks {
			for _, s := range g.Succs[b.Index] {
				if !l.inBody[s.Index] {
					l.Exits = append(l.Exits, Edge{From: b, To: s})
				}
			}
		}
		f.Loops = append(f.Loops, l)
	}

	// Nesting: loop A is inside loop B if B contains A's header and A != B.
	// Sort candidate parents by body size so the innermost (smallest) wins.
	for _, l := range f.Loops {
		var parent *Loop
		for _, cand := range f.Loops {
			if cand == l || !cand.inBody[l.Header.Index] {
				continue
			}
			if parent == nil || len(cand.Blocks) < len(parent.Blocks) {
				parent = cand
			}
		}
		l.Parent = parent
		if parent != nil {
			parent.Children = append(parent.Children, l)
		} else {
			f.Roots = append(f.Roots, l)
		}
	}
	sort.Slice(f.Loops, func(i, j int) bool { return f.Loops[i].Depth() < f.Loops[j].Depth() })

	// Innermost loop per block: smallest body containing it.
	for _, l := range f.Loops {
		for _, b := range l.Blocks {
			cur := f.loopOf[b.Index]
			if cur == nil || len(l.Blocks) < len(cur.Blocks) {
				f.loopOf[b.Index] = l
			}
		}
	}
	return f
}
