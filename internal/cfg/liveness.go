package cfg

import (
	"math/bits"

	"helixrc/internal/ir"
)

// Liveness holds per-block live-in/live-out register sets for a
// function as flat bitsets: block i's set is words [i*words, (i+1)*words)
// of in or out, bit r%64 of word r/64 standing for register r. Callers
// read it through LiveIn, LiveOut, LiveInRegs and LiveAtHeader.
type Liveness struct {
	Fn    *ir.Function
	words int
	in    []uint64
	out   []uint64
}

// ComputeLiveness runs the standard backward dataflow. Call instructions
// use their argument registers; no registers are implicitly live across
// calls (the IR has no callee-saved convention — frames are private).
// It makes the same two allocations however large the function is: the
// Liveness and one array backing the use, def, in and out sets.
func ComputeLiveness(g *Graph) *Liveness {
	f := g.Fn
	w := (f.NumRegs + 63) / 64
	span := len(f.Blocks) * w
	sets := make([]uint64, 4*span)
	use, def := sets[:span], sets[span:2*span]
	lv := &Liveness{Fn: f, words: w, in: sets[2*span : 3*span], out: sets[3*span:]}
	for _, b := range f.Blocks {
		u, d := use[b.Index*w:(b.Index+1)*w], def[b.Index*w:(b.Index+1)*w]
		read := func(v ir.Value) {
			if v.IsReg() && !has(d, v.Reg) {
				set(u, v.Reg)
			}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			// The registers in.Uses reports, without building a slice.
			switch in.Op {
			case ir.OpRet:
				if in.HasA {
					read(in.A)
				}
			case ir.OpCall:
				for _, a := range in.Args {
					read(a)
				}
			default:
				read(in.A)
				read(in.B)
			}
			if dr := in.Def(); dr != ir.NoReg {
				set(d, dr)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		// Iterate in reverse RPO for faster convergence.
		for i := len(g.RPO) - 1; i >= 0; i-- {
			bi := g.RPO[i].Index
			out := lv.out[bi*w : (bi+1)*w]
			for _, s := range g.Succs[bi] {
				sin := lv.in[s.Index*w : (s.Index+1)*w]
				for k, x := range sin {
					if x&^out[k] != 0 {
						out[k] |= x
						changed = true
					}
				}
			}
			in := lv.in[bi*w : (bi+1)*w]
			u, d := use[bi*w:(bi+1)*w], def[bi*w:(bi+1)*w]
			for k := range in {
				if x := u[k] | out[k]&^d[k]; x&^in[k] != 0 {
					in[k] |= x
					changed = true
				}
			}
		}
	}
	return lv
}

func set(s []uint64, r ir.Reg) { s[r/64] |= 1 << (uint(r) % 64) }

func has(s []uint64, r ir.Reg) bool {
	return r >= 0 && int(r/64) < len(s) && s[r/64]&(1<<(uint(r)%64)) != 0
}

func (lv *Liveness) block(sets []uint64, b *ir.Block) []uint64 {
	return sets[b.Index*lv.words : (b.Index+1)*lv.words]
}

// LiveIn reports whether r is live on entry to b.
func (lv *Liveness) LiveIn(b *ir.Block, r ir.Reg) bool { return has(lv.block(lv.in, b), r) }

// LiveOut reports whether r is live on exit from b.
func (lv *Liveness) LiveOut(b *ir.Block, r ir.Reg) bool { return has(lv.block(lv.out, b), r) }

// LiveInRegs appends the registers live on entry to b to dst in
// ascending order and returns it.
func (lv *Liveness) LiveInRegs(dst []ir.Reg, b *ir.Block) []ir.Reg {
	for k, x := range lv.block(lv.in, b) {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, ir.Reg(k*64+bits.TrailingZeros64(x)))
		}
	}
	return dst
}

// LiveAtHeader returns the registers live on entry to a loop's header —
// the candidates for loop-carried register dependences.
func (lv *Liveness) LiveAtHeader(l *Loop) map[ir.Reg]bool {
	regs := lv.LiveInRegs(nil, l.Header)
	m := make(map[ir.Reg]bool, len(regs))
	for _, r := range regs {
		m[r] = true
	}
	return m
}
