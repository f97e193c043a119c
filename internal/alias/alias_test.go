package alias

import (
	"testing"

	"helixrc/internal/ir"
)

// findMem returns the UIDs of all loads/stores in the function, in order.
func findMem(f *ir.Function) []int32 {
	var out []int32
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op.IsMem() {
				out = append(out, b.Instrs[i].UID)
			}
		}
	}
	return out
}

func TestDistinctGlobalsNeverAlias(t *testing.T) {
	p := ir.NewProgram("t")
	ty := p.NewType("int")
	g1 := p.AddGlobal("a", 10, ty)
	g2 := p.AddGlobal("b", 10, ty)
	f := p.NewFunction("main", 0)
	b := ir.NewBuilder(p, f)
	a1 := b.GlobalAddr(g1)
	a2 := b.GlobalAddr(g2)
	b.Store(ir.R(a1), 0, ir.C(1), ir.MemAttrs{Type: ty})
	b.Store(ir.R(a2), 0, ir.C(2), ir.MemAttrs{Type: ty})
	b.RetVoid()
	p.AssignUIDs()
	an := New(p, TierBase)
	mem := findMem(f)
	if an.MayAlias(mem[0], mem[1]) {
		t.Error("stores to distinct globals must not alias even at TierBase")
	}
}

func TestSameGlobalDifferentOffsets(t *testing.T) {
	p := ir.NewProgram("t")
	ty := p.NewType("int")
	g := p.AddGlobal("a", 10, ty)
	f := p.NewFunction("main", 0)
	b := ir.NewBuilder(p, f)
	base := b.GlobalAddr(g)
	b.Store(ir.R(base), 2, ir.C(1), ir.MemAttrs{Type: ty})
	b.Store(ir.R(base), 5, ir.C(2), ir.MemAttrs{Type: ty})
	p.AssignUIDs()
	b.RetVoid()
	p.AssignUIDs()
	mem := findMem(f)

	base1 := New(p, TierBase)
	if !base1.MayAlias(mem[0], mem[1]) {
		t.Error("field-insensitive tier should report may-alias for same object")
	}
	path := New(p, TierPath)
	if path.MayAlias(mem[0], mem[1]) {
		t.Error("path tier must prove distinct constant offsets disjoint")
	}
}

func TestFlowSensitivityPrunesReusedRegister(t *testing.T) {
	p := ir.NewProgram("t")
	ty := p.NewType("int")
	g1 := p.AddGlobal("a", 4, ty)
	g2 := p.AddGlobal("b", 4, ty)
	f := p.NewFunction("main", 0)
	b := ir.NewBuilder(p, f)
	// ptr points to a, store; then ptr points to b, store.
	ptr := b.Const(g1.Addr)
	b.Store(ir.R(ptr), 0, ir.C(1), ir.MemAttrs{Type: ty})
	b.MovTo(ptr, ir.C(g2.Addr))
	b.Store(ir.R(ptr), 0, ir.C(2), ir.MemAttrs{Type: ty})
	b.RetVoid()
	p.AssignUIDs()
	mem := findMem(f)

	baseAn := New(p, TierBase)
	if !baseAn.MayAlias(mem[0], mem[1]) {
		t.Error("flow-insensitive analysis should merge both pointers")
	}
	flowAn := New(p, TierFlow)
	if flowAn.MayAlias(mem[0], mem[1]) {
		t.Error("flow-sensitive analysis should separate the two stores")
	}
}

func TestHeapPointerFlowsThroughMemory(t *testing.T) {
	p := ir.NewProgram("t")
	ty := p.NewType("node")
	slot := p.AddGlobal("slot", 1, ty)
	f := p.NewFunction("main", 0)
	b := ir.NewBuilder(p, f)
	n := b.Alloc(4, ty)
	sa := b.GlobalAddr(slot)
	b.Store(ir.R(sa), 0, ir.R(n), ir.MemAttrs{Type: ty}) // slot = n
	ld := b.Load(ir.R(sa), 0, ir.MemAttrs{Type: ty})     // q = slot
	b.Store(ir.R(ld), 1, ir.C(7), ir.MemAttrs{Type: ty}) // q[1] = 7
	b.Store(ir.R(n), 1, ir.C(8), ir.MemAttrs{Type: ty})  // n[1] = 8
	b.RetVoid()
	p.AssignUIDs()
	mem := findMem(f)
	an := New(p, TierBase)
	// mem[2] (q[1]=7) and mem[3] (n[1]=8) hit the same heap object.
	if !an.MayAlias(mem[2], mem[3]) {
		t.Error("pointer laundered through memory must still alias its source")
	}
	// The slot itself and the heap object are different sites.
	if an.MayAlias(mem[0], mem[3]) {
		t.Error("slot and heap object should not alias")
	}
}

func TestTypeTierSeparatesTypes(t *testing.T) {
	p := ir.NewProgram("t")
	tyA := p.NewType("A")
	tyB := p.NewType("B")
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	// Fully opaque base pointer (parameter) — points-to unknown.
	ptr := f.Params[0]
	b.Store(ir.R(ptr), 0, ir.C(1), ir.MemAttrs{Type: tyA})
	b.Store(ir.R(ptr), 0, ir.C(2), ir.MemAttrs{Type: tyB})
	b.Store(ir.R(ptr), 0, ir.C(3), ir.MemAttrs{}) // TypeAny
	b.RetVoid()
	p.AssignUIDs()
	mem := findMem(f)

	pathAn := New(p, TierPath)
	if !pathAn.MayAlias(mem[0], mem[1]) {
		t.Error("below the type tier, differing types must still alias")
	}
	typeAn := New(p, TierType)
	if typeAn.MayAlias(mem[0], mem[1]) {
		t.Error("type tier must separate A from B")
	}
	if !typeAn.MayAlias(mem[0], mem[2]) {
		t.Error("TypeAny is compatible with everything")
	}
}

func TestPathTierSeparatesFields(t *testing.T) {
	p := ir.NewProgram("t")
	ty := p.NewType("node")
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	ptr := f.Params[0]
	b.Store(ir.R(ptr), 0, ir.C(1), ir.MemAttrs{Type: ty, Path: "node.next"})
	b.Store(ir.R(ptr), 0, ir.C(2), ir.MemAttrs{Type: ty, Path: "node.val"})
	b.RetVoid()
	p.AssignUIDs()
	mem := findMem(f)
	if !New(p, TierFlow).MayAlias(mem[0], mem[1]) {
		t.Error("flow tier cannot use paths")
	}
	if New(p, TierPath).MayAlias(mem[0], mem[1]) {
		t.Error("path tier must separate distinct field paths")
	}
}

func TestLibCallTier(t *testing.T) {
	p := ir.NewProgram("t")
	ty := p.NewType("int")
	g := p.AddGlobal("a", 4, ty)
	pure := &ir.Extern{Name: "abs"}
	clobber := &ir.Extern{Name: "mystery", ReadsMem: true, WritesMem: true}
	f := p.NewFunction("main", 0)
	b := ir.NewBuilder(p, f)
	b.CallExtern(pure, ir.C(1))
	b.CallExtern(clobber)
	base := b.GlobalAddr(g)
	b.Store(ir.R(base), 0, ir.C(1), ir.MemAttrs{Type: ty})
	b.RetVoid()
	p.AssignUIDs()

	var pureIn, clobIn *ir.Instr
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if in.Op == ir.OpCall && in.Extern == pure {
				pureIn = in
			}
			if in.Op == ir.OpCall && in.Extern == clobber {
				clobIn = in
			}
		}
	}
	low := New(p, TierType)
	if eff, ok := low.EffectOfCall(f, pureIn); !ok || !eff.Writes {
		t.Error("below TierLib every extern call is a clobber")
	}
	lib := New(p, TierLib)
	if eff, ok := lib.EffectOfCall(f, pureIn); !ok || eff.Reads || eff.Writes {
		t.Error("TierLib must recognize a pure extern")
	}
	if eff, ok := lib.EffectOfCall(f, clobIn); !ok || !eff.Writes {
		t.Error("an honest clobber stays a clobber at TierLib")
	}
}

func TestSiteSetOperations(t *testing.T) {
	s := NewSiteSet()
	if !s.Empty() || s.Len() != 0 {
		t.Error("fresh set should be empty")
	}
	if !s.Add(1) || s.Add(1) {
		t.Error("Add change reporting wrong")
	}
	o := NewSiteSet()
	o.Add(2)
	if !s.AddAll(o) || s.Len() != 2 {
		t.Error("AddAll failed")
	}
	if _, ok := s.Single(); ok {
		t.Error("two-element set is not single")
	}
	u := Universe()
	if !Intersects(u, NewSiteSet()) {
		t.Error("universe intersects everything, including lost-track sets")
	}
	if u.Add(5) {
		t.Error("adding to universe must be a no-op")
	}
	c := s.Clone()
	c.Add(9)
	if s.Has(9) {
		t.Error("clone must not share storage")
	}
	a := NewSiteSet()
	a.Add(3)
	bSet := NewSiteSet()
	bSet.Add(4)
	if Intersects(a, bSet) {
		t.Error("disjoint sets must not intersect")
	}
	bSet.Add(3)
	if !Intersects(a, bSet) {
		t.Error("overlapping sets must intersect")
	}
}

func TestTierMonotonicity(t *testing.T) {
	// Raising the tier must never add alias pairs: build a small program
	// with several access styles and check pairwise implications.
	p := ir.NewProgram("t")
	ty1 := p.NewType("T1")
	ty2 := p.NewType("T2")
	g1 := p.AddGlobal("a", 16, ty1)
	g2 := p.AddGlobal("b", 16, ty2)
	f := p.NewFunction("main", 2)
	b := ir.NewBuilder(p, f)
	a1 := b.GlobalAddr(g1)
	a2 := b.GlobalAddr(g2)
	b.Store(ir.R(a1), 0, ir.C(1), ir.MemAttrs{Type: ty1, Path: "x"})
	b.Store(ir.R(a1), 3, ir.C(2), ir.MemAttrs{Type: ty1, Path: "y"})
	b.Store(ir.R(a2), 0, ir.C(3), ir.MemAttrs{Type: ty2})
	b.Store(ir.R(f.Params[0]), 0, ir.C(4), ir.MemAttrs{})
	idx := b.Add(ir.R(a1), ir.R(f.Params[1]))
	b.Store(ir.R(idx), 0, ir.C(5), ir.MemAttrs{Type: ty1})
	b.RetVoid()
	p.AssignUIDs()
	mem := findMem(f)

	// Every tier's view of one shared solution must answer like a solve
	// of its own.
	sol := Solve(p)
	var an []*Analysis
	for _, tier := range Tiers {
		an = append(an, New(p, tier))
		view := sol.At(tier)
		for i := range mem {
			for j := i; j < len(mem); j++ {
				if got, want := view.MayAlias(mem[i], mem[j]), an[len(an)-1].MayAlias(mem[i], mem[j]); got != want {
					t.Errorf("tier %v: the shared solution says MayAlias(%d,%d) = %t, a solve of its own %t", tier, i, j, got, want)
				}
			}
		}
	}
	for ti := 1; ti < len(an); ti++ {
		for i := 0; i < len(mem); i++ {
			for j := i; j < len(mem); j++ {
				if an[ti].MayAlias(mem[i], mem[j]) && !an[ti-1].MayAlias(mem[i], mem[j]) {
					t.Errorf("tier %v added alias pair (%d,%d) missing at tier %v",
						an[ti].Tier, i, j, an[ti-1].Tier)
				}
			}
		}
	}
}
