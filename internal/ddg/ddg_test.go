package ddg

import (
	"slices"
	"testing"

	"helixrc/internal/alias"
	"helixrc/internal/cfg"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
)

// buildLoop constructs a loop whose body is provided by emit(b, i, base)
// where i is the induction register and base the array base register.
func buildLoop(t testing.TB, name string, arrSize int64,
	emit func(b *ir.Builder, i, base ir.Reg, ty ir.TypeID)) (*ir.Program, *ir.Function, *cfg.Graph, *cfg.Loop) {
	t.Helper()
	p := ir.NewProgram(name)
	ty := p.NewType("data")
	arr := p.AddGlobal("arr", arrSize, ty)
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	n := f.Params[0]
	base := b.GlobalAddr(arr)
	i := b.Const(0)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	c := b.Bin(ir.OpCmpLT, ir.R(i), ir.R(n))
	b.CondBr(ir.R(c), body, exit)
	b.SetBlock(body)
	emit(b, i, base, ty)
	b.BinTo(i, ir.OpAdd, ir.R(i), ir.C(1))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(ir.C(0))
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	p.AssignUIDs()
	g := cfg.New(f)
	forest := cfg.FindLoops(g)
	if len(forest.Loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(forest.Loops))
	}
	return p, f, g, forest.Loops[0]
}

func TestRecurrenceHasMemEdge(t *testing.T) {
	p, f, g, loop := buildLoop(t, "rec", 4, func(b *ir.Builder, i, base ir.Reg, ty ir.TypeID) {
		v := b.Load(ir.R(base), 0, ir.MemAttrs{Type: ty})
		nv := b.Add(ir.R(v), ir.R(i))
		b.Store(ir.R(base), 0, ir.R(nv), ir.MemAttrs{Type: ty})
	})
	an := alias.New(p, alias.TierLib)
	dg := Build(p, f, g, loop, an)
	if len(dg.MemEdges) == 0 {
		t.Fatal("recurrence must report a memory dependence")
	}
	// i is carried; v, nv are not (set before use).
	foundI := false
	for _, r := range dg.CarriedRegs {
		if r == dg.CarriedRegs[0] {
			foundI = true
		}
	}
	if !foundI || len(dg.CarriedRegs) == 0 {
		t.Errorf("carried regs = %v", dg.CarriedRegs)
	}
}

func TestDoallDropsSelfEdge(t *testing.T) {
	// a[i] = i: the affine distance analysis (available to every HCC
	// generation) proves per-iteration disjointness at all alias tiers.
	p, f, g, loop := buildLoop(t, "doall", 64, func(b *ir.Builder, i, base ir.Reg, ty ir.TypeID) {
		addr := b.Add(ir.R(base), ir.R(i))
		b.Store(ir.R(addr), 0, ir.R(i), ir.MemAttrs{Type: ty})
	})
	for _, tier := range alias.Tiers {
		dg := Build(p, f, g, loop, alias.New(p, tier))
		if len(dg.MemEdges) != 0 {
			t.Fatalf("tier %v: affine analysis should prove a[i] loop-disjoint, got %v", tier, dg.MemEdges)
		}
	}
}

func TestDataDependentIndexKeepsEdge(t *testing.T) {
	// a[a[i]&31] = i: the index is loaded from memory, so the affine
	// analysis fails and the conservative self edge must survive — and
	// the oracle confirms it is (at least sometimes) real.
	p, f, g, loop := buildLoop(t, "scatter", 64, func(b *ir.Builder, i, base ir.Reg, ty ir.TypeID) {
		ia := b.Add(ir.R(base), ir.R(i))
		idx := b.Load(ir.R(ia), 0, ir.MemAttrs{Type: ty})
		masked := b.Bin(ir.OpAnd, ir.R(idx), ir.C(31))
		addr := b.Add(ir.R(base), ir.R(masked))
		b.Store(ir.R(addr), 0, ir.R(i), ir.MemAttrs{Type: ty})
	})
	dg := Build(p, f, g, loop, alias.New(p, alias.TierLib))
	if len(dg.MemEdges) == 0 {
		t.Fatal("data-dependent scatter must keep its dependence edges")
	}
	forest := cfg.FindLoops(g)
	pr := &interp.Profiler{Prog: p, Forests: map[*ir.Function]*cfg.Forest{f: forest}}
	prof, err := pr.Run(f, 32)
	if err != nil {
		t.Fatal(err)
	}
	lp := prof.Loops[loopKey(p, f, loop)]
	if bad := Unsound(dg, lp); len(bad) > 0 {
		t.Errorf("analysis unsound on scatter: %v", bad)
	}
}

// loopKey names loop, a loop of f, the way profiles do.
func loopKey(p *ir.Program, f *ir.Function, loop *cfg.Loop) interp.LoopKey {
	for fi, fn := range p.Funcs {
		if fn == f {
			return interp.LoopKey{Fn: int32(fi), Header: int32(loop.Header.Index)}
		}
	}
	panic("loopKey: function not in program")
}

func TestAccuracyLadderImproves(t *testing.T) {
	// Two field regions of one object accessed at data-dependent offsets
	// (so the affine analysis cannot help): region "s.x" spans words 0-3,
	// region "s.y" words 4-7. Low tiers must assume x/y cross-pairs may
	// alias; the path tier separates the regions, leaving only the real
	// within-region dependences.
	p, f, g, loop := buildLoop(t, "ladder", 48, func(b *ir.Builder, i, base ir.Reg, ty ir.TypeID) {
		iv := b.Add(ir.R(base), ir.R(i))
		v := b.Load(ir.R(iv), 8, ir.MemAttrs{Type: ty, Path: "seed"})
		m := b.Bin(ir.OpAnd, ir.R(v), ir.C(3))
		xa := b.Add(ir.R(base), ir.R(m))
		x0 := b.Load(ir.R(xa), 0, ir.MemAttrs{Type: ty, Path: "s.x"})
		x1 := b.Add(ir.R(x0), ir.R(i))
		b.Store(ir.R(xa), 0, ir.R(x1), ir.MemAttrs{Type: ty, Path: "s.x"})
		ya := b.Add(ir.R(base), ir.R(m))
		y0 := b.Load(ir.R(ya), 4, ir.MemAttrs{Type: ty, Path: "s.y"})
		y1 := b.Add(ir.R(y0), ir.R(i))
		b.Store(ir.R(ya), 4, ir.R(y1), ir.MemAttrs{Type: ty, Path: "s.y"})
	})
	forest := cfg.FindLoops(g)
	pr := &interp.Profiler{Prog: p, Forests: map[*ir.Function]*cfg.Forest{f: forest}}
	prof, err := pr.Run(f, 32)
	if err != nil {
		t.Fatal(err)
	}
	lp := prof.Loops[loopKey(p, f, loop)]

	// One alias-free part serves every tier (WithAlias) and reads the
	// same edges as a Build of its own.
	shared := ForLoop(f, g, cfg.ComputeLiveness(g), loop)
	prev := -1.0
	for _, tier := range alias.Tiers {
		an := alias.New(p, tier)
		dg := Build(p, f, g, loop, an)
		if got := shared.WithAlias(g, an); !slices.Equal(got.MemEdges, dg.MemEdges) || !slices.Equal(got.CarriedRegs, dg.CarriedRegs) {
			t.Errorf("tier %v: the shared part gives edges %v and carried registers %v, Build %v and %v",
				tier, got.MemEdges, got.CarriedRegs, dg.MemEdges, dg.CarriedRegs)
		}
		if bad := Unsound(dg, lp); len(bad) > 0 {
			t.Fatalf("tier %v unsound: misses %v", tier, bad)
		}
		acc := Accuracy(dg, lp)
		if acc < prev {
			t.Errorf("accuracy regressed at tier %v: %f < %f", tier, acc, prev)
		}
		prev = acc
	}
	base := Build(p, f, g, loop, alias.New(p, alias.TierBase))
	path := Build(p, f, g, loop, alias.New(p, alias.TierPath))
	if len(path.MemEdges) >= len(base.MemEdges) {
		t.Errorf("path tier should prune edges: base=%d path=%d",
			len(base.MemEdges), len(path.MemEdges))
	}
	if Accuracy(path, lp) != 1.0 {
		t.Errorf("path tier accuracy = %f, want 1.0", Accuracy(path, lp))
	}
}

func TestExternCallEdges(t *testing.T) {
	pure := &ir.Extern{Name: "pure"}
	clob := &ir.Extern{Name: "clob", ReadsMem: true, WritesMem: true}
	p, f, g, loop := buildLoop(t, "calls", 4, func(b *ir.Builder, i, base ir.Reg, ty ir.TypeID) {
		b.Store(ir.R(base), 0, ir.R(i), ir.MemAttrs{Type: ty})
		b.CallExtern(pure, ir.R(i))
		b.CallExtern(clob)
	})
	low := Build(p, f, g, loop, alias.New(p, alias.TierType))
	lib := Build(p, f, g, loop, alias.New(p, alias.TierLib))
	if len(lib.MemEdges) >= len(low.MemEdges) {
		t.Errorf("lib tier should prune call edges: low=%d lib=%d",
			len(low.MemEdges), len(lib.MemEdges))
	}
	// The honest clobber still produces an edge with the store at TierLib.
	found := false
	for _, e := range lib.MemEdges {
		if e.Kind == CallDep {
			found = true
		}
	}
	if !found {
		t.Error("clobbering extern must keep a call dependence at TierLib")
	}
}

func TestInstrCollectionFollowsCalls(t *testing.T) {
	p := ir.NewProgram("t")
	ty := p.NewType("int")
	gl := p.AddGlobal("g", 4, ty)
	helper := p.NewFunction("helper", 0)
	hb := ir.NewBuilder(p, helper)
	hbase := hb.GlobalAddr(gl)
	v := hb.Load(ir.R(hbase), 0, ir.MemAttrs{Type: ty})
	nv := hb.Add(ir.R(v), ir.C(1))
	hb.Store(ir.R(hbase), 0, ir.R(nv), ir.MemAttrs{Type: ty})
	hb.Ret(ir.R(nv))

	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	n := f.Params[0]
	i := b.Const(0)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	c := b.Bin(ir.OpCmpLT, ir.R(i), ir.R(n))
	b.CondBr(ir.R(c), body, exit)
	b.SetBlock(body)
	b.Call(helper)
	b.BinTo(i, ir.OpAdd, ir.R(i), ir.C(1))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(ir.C(0))
	p.AssignUIDs()

	g := cfg.New(f)
	forest := cfg.FindLoops(g)
	dg := Build(p, f, g, forest.Loops[0], alias.New(p, alias.TierLib))
	memCount := 0
	for _, li := range dg.Instrs {
		if li.In.Op.IsMem() {
			memCount++
		}
	}
	if memCount != 2 {
		t.Errorf("callee memory ops not collected: %d", memCount)
	}
	if len(dg.MemEdges) == 0 {
		t.Error("recurrence through a call must be reported")
	}
}
