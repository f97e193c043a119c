package alias

import (
	"helixrc/internal/cfg"
	"helixrc/internal/ir"
)

// absVal is the flow-sensitive abstract value of one register: a points-to
// set, optionally an exact (site, offset) location, and optionally a known
// integer constant. Exactness is what powers the path-based tier: two
// accesses to provably different words of the same object do not alias.
type absVal struct {
	pts   *SiteSet
	site  ir.Site
	off   int64
	exact bool
	cv    int64
	isC   bool
}

func meetVal(a, b absVal) absVal {
	out := absVal{pts: unionPts(a.pts, b.pts)}
	if a.exact && b.exact && a.site == b.site && a.off == b.off {
		out.exact, out.site, out.off = true, a.site, a.off
	}
	if a.isC && b.isC && a.cv == b.cv {
		out.isC, out.cv = true, a.cv
	}
	return out
}

func sameVal(a, b absVal) bool {
	if a.exact != b.exact || a.isC != b.isC {
		return false
	}
	if a.exact && (a.site != b.site || a.off != b.off) {
		return false
	}
	if a.isC && a.cv != b.cv {
		return false
	}
	ap := a.pts != nil && !a.pts.Empty()
	bp := b.pts != nil && !b.pts.Empty()
	if ap != bp {
		return false
	}
	if !ap {
		return true
	}
	return a.pts.Universal == b.pts.Universal && a.pts.Len() == b.pts.Len() && a.pts.subsetOf(b.pts)
}

// state is a register file of abstract values. The points-to sets it
// holds are never mutated once built (every transfer and meet that
// changes a set builds a new one), so states share them and copying a
// state is shallow.
type state []absVal

func (s state) clone() state { return append(state(nil), s...) }

// meetState returns the meet of a and b and whether it differs from a.
// An unchanged meet returns a itself and allocates nothing, which is the
// common case once the fixpoint nears convergence.
func meetState(a, b state) (state, bool) {
	for i := range a {
		if sameVal(meetVal(a[i], b[i]), a[i]) {
			continue
		}
		out := make(state, len(a))
		for j := range a {
			out[j] = meetVal(a[j], b[j])
		}
		return out, true
	}
	return a, false
}

// flowPass runs an intra-procedural forward dataflow over f, then records
// a Desc for each memory instruction at its program point into desc.
func (and *andersen) flowPass(f *ir.Function, g *cfg.Graph, desc map[int32]*Desc) {
	baseOf := func(st state, v ir.Value) absVal {
		switch v.Kind {
		case ir.KindReg:
			return st[v.Reg]
		case ir.KindConst:
			out := absVal{isC: true, cv: v.Imm}
			if site, off, ok := and.gm.siteOf(v.Imm); ok {
				out.exact, out.site, out.off = true, site, off
				out.pts = NewSiteSet()
				out.pts.Add(site)
			}
			return out
		}
		return absVal{}
	}

	transfer := func(st state, in *ir.Instr, record bool) {
		a := baseOf(st, in.A)
		b := baseOf(st, in.B)
		if record && in.Op.IsMem() {
			d := &Desc{Pts: NewSiteSet()}
			if a.pts != nil {
				d.Pts = a.pts.Clone()
			} else if a.pts == nil && !a.isC {
				// No information at all: fall back to the flow-insensitive
				// solution for the base register.
				if in.A.IsReg() {
					d.Pts = and.regPts[f][in.A.Reg].Clone()
				}
			}
			if a.exact {
				d.Exact, d.Site, d.Off = true, a.site, a.off+in.Off
			}
			desc[in.UID] = d
		}
		set := func(dst ir.Reg, v absVal) {
			if dst != ir.NoReg {
				st[dst] = v
			}
		}
		switch in.Op {
		case ir.OpConst:
			set(in.Dst, baseOf(st, in.A))
		case ir.OpMov:
			set(in.Dst, a)
		case ir.OpAdd, ir.OpFAdd:
			set(in.Dst, addVals(a, b))
		case ir.OpSub, ir.OpFSub:
			set(in.Dst, subVals(a, b))
		case ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpAnd, ir.OpOr, ir.OpXor,
			ir.OpShl, ir.OpShr, ir.OpFMul, ir.OpFDiv,
			ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
			set(in.Dst, foldArith(in.Op, a, b))
		case ir.OpMin, ir.OpMax:
			set(in.Dst, meetVal(a, b))
		case ir.OpAlloc:
			s := NewSiteSet()
			s.Add(in.Alloc)
			set(in.Dst, absVal{pts: s, exact: true, site: in.Alloc})
		case ir.OpLoad:
			v := absVal{pts: NewSiteSet()}
			bp := a.pts
			if bp == nil && in.A.IsReg() {
				bp = and.regPts[f][in.A.Reg]
			}
			if bp == nil || bp.Universal || bp.Empty() {
				v.pts = Universe()
			} else {
				for _, site := range bp.Sites() {
					v.pts.AddAll(and.content[site])
				}
			}
			set(in.Dst, v)
		case ir.OpCall:
			v := absVal{pts: NewSiteSet()}
			if in.Callee != nil {
				v.pts = and.ret[in.Callee].Clone()
			}
			set(in.Dst, v)
		}
	}

	// Fixpoint over block in-states.
	n := len(f.Blocks)
	ins := make([]state, n)
	visited := make([]bool, n)
	entrySt := make(state, f.NumRegs)
	for r := 0; r < f.NumRegs; r++ {
		entrySt[r] = absVal{pts: and.regPts[f][r]}
	}
	ins[f.Entry().Index] = entrySt
	visited[f.Entry().Index] = true

	// st is the scratch state a block is transferred in; it is copied
	// whenever a successor keeps it.
	var st state
	for changed := true; changed; {
		changed = false
		for _, b := range g.RPO {
			if !visited[b.Index] {
				continue
			}
			st = append(st[:0], ins[b.Index]...)
			for i := range b.Instrs {
				transfer(st, &b.Instrs[i], false)
			}
			for _, s := range g.Succs[b.Index] {
				if !visited[s.Index] {
					ins[s.Index] = st.clone()
					visited[s.Index] = true
					changed = true
				} else {
					merged, ch := meetState(ins[s.Index], st)
					if ch {
						ins[s.Index] = merged
						changed = true
					}
				}
			}
		}
	}

	// Final recording pass with the converged states.
	for _, b := range g.RPO {
		if !visited[b.Index] {
			continue
		}
		st = append(st[:0], ins[b.Index]...)
		for i := range b.Instrs {
			transfer(st, &b.Instrs[i], true)
		}
	}
}

func addVals(a, b absVal) absVal {
	out := absVal{}
	switch {
	case a.exact && b.isC:
		out.exact, out.site, out.off = true, a.site, a.off+b.cv
	case b.exact && a.isC:
		out.exact, out.site, out.off = true, b.site, b.off+a.cv
	}
	if a.isC && b.isC {
		out.isC, out.cv = true, a.cv+b.cv
	}
	out.pts = unionPts(a.pts, b.pts)
	return out
}

func subVals(a, b absVal) absVal {
	out := absVal{}
	if a.exact && b.isC {
		out.exact, out.site, out.off = true, a.site, a.off-b.cv
	}
	if a.isC && b.isC {
		out.isC, out.cv = true, a.cv-b.cv
	}
	out.pts = unionPts(a.pts, b.pts)
	return out
}

func foldArith(op ir.Op, a, b absVal) absVal {
	out := absVal{}
	// Alignment masking (and/or) keeps the base object; multiplicative
	// and shift/xor transforms destroy pointerhood (consistent with the
	// flow-insensitive solver — hash chains must not smear points-to
	// sets onto their inputs' bases).
	if op == ir.OpAnd || op == ir.OpOr {
		out.pts = unionPts(a.pts, b.pts)
	}
	if a.isC && b.isC {
		out.isC = true
		x, y := a.cv, b.cv
		switch op {
		case ir.OpMul, ir.OpFMul:
			out.cv = x * y
		case ir.OpDiv, ir.OpFDiv:
			if y != 0 {
				out.cv = x / y
			}
		case ir.OpRem:
			if y != 0 {
				out.cv = x % y
			}
		case ir.OpAnd:
			out.cv = x & y
		case ir.OpOr:
			out.cv = x | y
		case ir.OpXor:
			out.cv = x ^ y
		case ir.OpShl:
			out.cv = x << (uint64(y) & 63)
		case ir.OpShr:
			out.cv = x >> (uint64(y) & 63)
		default:
			out.isC = false
		}
	}
	return out
}

// unionPts returns a ∪ b (nil when both are nil). It returns an operand
// itself when that operand already contains the other, which is safe
// because flow states never mutate their sets.
func unionPts(a, b *SiteSet) *SiteSet {
	switch {
	case a == nil:
		return b
	case b == nil || b.subsetOf(a):
		return a
	case a.subsetOf(b):
		return b
	}
	u := a.Clone()
	u.AddAll(b)
	return u
}
