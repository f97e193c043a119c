package sim

import (
	"context"
	"testing"

	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
)

// buildMixed builds a program with a hot counted loop containing a real
// loop-carried memory dependence (conditional shared-cell update), an
// accumulator, an induction variable and DOALL array writes — all four
// recomputation/communication mechanisms at once.
func buildMixed(t testing.TB, n int64) (*ir.Program, *ir.Function) {
	p := ir.NewProgram("mixed")
	tyData := p.NewType("data[]")
	tyOut := p.NewType("out[]")
	tyCost := p.NewType("cost")
	data := p.AddGlobal("data", n, tyData)
	for i := int64(0); i < n; i++ {
		data.Init = append(data.Init, (i*1103515245+12345)%97)
	}
	out := p.AddGlobal("out", n, tyOut)
	cost := p.AddGlobal("cost", 1, tyCost)
	cost.Init = []int64{5}

	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	nr := f.Params[0]
	dbase := b.GlobalAddr(data)
	obase := b.GlobalAddr(out)
	cbase := b.GlobalAddr(cost)
	i := b.Const(0)
	sum := b.Const(0)

	head := b.NewBlock("head")
	body := b.NewBlock("body")
	then := b.NewBlock("then")
	cont := b.NewBlock("cont")
	exit := b.NewBlock("exit")
	b.Br(head)

	b.SetBlock(head)
	c := b.Bin(ir.OpCmpLT, ir.R(i), ir.R(nr))
	b.CondBr(ir.R(c), body, exit)

	b.SetBlock(body)
	da := b.Add(ir.R(dbase), ir.R(i))
	v := b.Load(ir.R(da), 0, ir.MemAttrs{Type: tyData, Path: "data[i]"})
	b.BinTo(sum, ir.OpAdd, ir.R(sum), ir.R(v))
	odd := b.Bin(ir.OpAnd, ir.R(v), ir.C(1))
	b.CondBr(ir.R(odd), then, cont)

	b.SetBlock(then)
	cv := b.Load(ir.R(cbase), 0, ir.MemAttrs{Type: tyCost, Path: "cost"})
	ncv := b.Bin(ir.OpXor, ir.R(cv), ir.R(v))
	b.Store(ir.R(cbase), 0, ir.R(ncv), ir.MemAttrs{Type: tyCost, Path: "cost"})
	b.Br(cont)

	b.SetBlock(cont)
	oa := b.Add(ir.R(obase), ir.R(i))
	v3 := b.Mul(ir.R(v), ir.C(3))
	b.Store(ir.R(oa), 0, ir.R(v3), ir.MemAttrs{Type: tyOut, Path: "out[i]"})
	b.BinTo(i, ir.OpAdd, ir.R(i), ir.C(1))
	b.Br(head)

	b.SetBlock(exit)
	fv := b.Load(ir.R(cbase), 0, ir.MemAttrs{Type: tyCost, Path: "cost"})
	o7 := b.Load(ir.R(obase), 7, ir.MemAttrs{Type: tyOut, Path: "out[i]"})
	r1 := b.Add(ir.R(fv), ir.R(sum))
	r2 := b.Add(ir.R(r1), ir.R(o7))
	r3 := b.Add(ir.R(r2), ir.R(i))
	b.Ret(ir.R(r3))
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p, f
}

// buildChase builds a pointer-chasing while-loop (non-counted): the
// classic parser/mcf pattern where the exit condition and the chased
// pointer are genuinely loop-carried shared state.
func buildChase(t testing.TB, nodes int64) (*ir.Program, *ir.Function) {
	p := ir.NewProgram("chase")
	tyNode := p.NewType("node")
	// list[i] = {next, val}: next at 2i, val at 2i+1; last next = 0.
	list := p.AddGlobal("list", nodes*2, tyNode)
	for i := int64(0); i < nodes; i++ {
		next := list.Addr + (i+1)*2
		if i == nodes-1 {
			next = 0
		}
		list.Init = append(list.Init, next, i*3+1)
	}
	f := p.NewFunction("main", 0)
	b := ir.NewBuilder(p, f)
	ptr := b.Const(list.Addr)
	sum := b.Const(0)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	c := b.Bin(ir.OpCmpNE, ir.R(ptr), ir.C(0))
	b.CondBr(ir.R(c), body, exit)
	b.SetBlock(body)
	// Advance the chase pointer first (HELIX-style scheduling keeps the
	// sequential segment short); work on the current node afterwards.
	cur := b.Mov(ir.R(ptr))
	nxt := b.Load(ir.R(ptr), 0, ir.MemAttrs{Type: tyNode, Path: "node.next"})
	b.MovTo(ptr, ir.R(nxt))
	val := b.Load(ir.R(cur), 1, ir.MemAttrs{Type: tyNode, Path: "node.val"})
	b.BinTo(sum, ir.OpAdd, ir.R(sum), ir.R(val))
	// Private busywork so the loop has parallel meat.
	w := b.Mul(ir.R(val), ir.R(val))
	w2 := b.Mul(ir.R(w), ir.C(17))
	w3 := b.Bin(ir.OpRem, ir.R(w2), ir.C(1009))
	w4 := b.Mul(ir.R(w3), ir.R(w3))
	w5 := b.Bin(ir.OpRem, ir.R(w4), ir.C(2003))
	b.BinTo(sum, ir.OpAdd, ir.R(sum), ir.R(w5))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(ir.R(sum))
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p, f
}

func compileFor(t testing.TB, p *ir.Program, f *ir.Function, level hcc.Level, args ...int64) *hcc.Compiled {
	t.Helper()
	comp, err := hcc.Compile(p, f, hcc.Options{Level: level, Cores: 16, TrainArgs: args})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return comp
}

func TestParallelMatchesSequentialMixed(t *testing.T) {
	p, f := buildMixed(t, 600)
	want, err := interp.Run(p, f, 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	comp := compileFor(t, p, f, hcc.V3, 600)
	if len(comp.Loops) != 1 {
		for _, rej := range comp.Rejected {
			t.Logf("rejected %v: %s (est %.2f)", rej.Loop, rej.Reason, rej.Estimate)
		}
		t.Fatalf("selected %d loops", len(comp.Loops))
	}
	res, err := Run(context.Background(), p, comp, f, HelixRC(16), 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.RetValue != want.RetValue {
		t.Fatalf("parallel result %d != sequential %d", res.RetValue, want.RetValue)
	}
	if res.LoopInvocations != 1 || res.IterationsRun != 600 {
		t.Errorf("invocations=%d iterations=%d", res.LoopInvocations, res.IterationsRun)
	}
}

// TestRunRejectsForeignProgram pins which programs a compile runs
// with: its input and the program HCC emitted run alike, and a program
// the compile does not extend — here another build of the same source,
// whose blocks the compile's loops do not name — is an error rather
// than a silently sequential run.
func TestRunRejectsForeignProgram(t *testing.T) {
	p, f := buildMixed(t, 600)
	comp := compileFor(t, p, f, hcc.V3, 600)
	if len(comp.Loops) == 0 {
		t.Fatal("no loop selected")
	}
	ctx := context.Background()
	in, err := Run(ctx, p, comp, f, HelixRC(16), 600)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(ctx, comp.Prog, comp, f, HelixRC(16), 600)
	if err != nil {
		t.Fatal(err)
	}
	if *in != *out {
		t.Errorf("the input and the emitted program run differently:\n%+v\n%+v", in, out)
	}
	other, otherF := buildMixed(t, 600)
	if _, err := Run(ctx, other, comp, otherF, HelixRC(16), 600); err == nil {
		t.Error("Run accepted a program the compile does not extend")
	}
	if _, _, err := Record(ctx, other, comp, otherF, HelixRC(16), 600); err == nil {
		t.Error("Record accepted a program the compile does not extend")
	}
}

func TestParallelSpeedsUpMixed(t *testing.T) {
	p, f := buildMixed(t, 2000)
	comp := compileFor(t, p, f, hcc.V3, 2000)
	seq, err := Run(context.Background(), p, nil, f, Conventional(16), 2000)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), p, comp, f, HelixRC(16), 2000)
	if err != nil {
		t.Fatal(err)
	}
	sp := Speedup(seq, par)
	if sp < 2 {
		t.Errorf("HELIX-RC speedup = %.2f, want >= 2 (seq=%d par=%d)", sp, seq.Cycles, par.Cycles)
	}
	// Conventional hardware running the same aggressively-split code must
	// do much worse (Figure 9's shape).
	conv, err := Run(context.Background(), p, comp, f, Conventional(16), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Cycles <= par.Cycles {
		t.Errorf("conventional (%d cycles) should be slower than ring cache (%d)", conv.Cycles, par.Cycles)
	}
	if conv.RetValue != par.RetValue {
		t.Errorf("conventional result diverges: %d != %d", conv.RetValue, par.RetValue)
	}
}

func TestParallelMatchesSequentialChase(t *testing.T) {
	p, f := buildChase(t, 500)
	want, err := interp.Run(p, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := hcc.Compile(p, f, hcc.Options{Level: hcc.V3, Cores: 16, MinSpeedup: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Loops) == 0 {
		for _, rej := range comp.Rejected {
			t.Logf("rejected %v: %s (est %.2f)", rej.Loop, rej.Reason, rej.Estimate)
		}
		t.Skip("chase loop not selected (estimate below threshold)")
	}
	pl := comp.Loops[0]
	if pl.Counted {
		t.Error("pointer chase must use the ctl protocol")
	}
	res, err := Run(context.Background(), p, comp, f, HelixRC(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.RetValue != want.RetValue {
		t.Fatalf("parallel result %d != sequential %d", res.RetValue, want.RetValue)
	}
	if res.IterationsRun != 500 {
		t.Errorf("iterations run = %d, want 500", res.IterationsRun)
	}
}

func TestDecouplingVariantsOrdering(t *testing.T) {
	p, f := buildMixed(t, 2000)
	comp := compileFor(t, p, f, hcc.V3, 2000)

	full := HelixRC(16)
	noMem := HelixRC(16)
	noMem.DecoupleMem = false
	noneDecoupled := Conventional(16)

	rFull, err := Run(context.Background(), p, comp, f, full, 2000)
	if err != nil {
		t.Fatal(err)
	}
	rNoMem, err := Run(context.Background(), p, comp, f, noMem, 2000)
	if err != nil {
		t.Fatal(err)
	}
	rNone, err := Run(context.Background(), p, comp, f, noneDecoupled, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !(rFull.Cycles <= rNoMem.Cycles && rNoMem.Cycles <= rNone.Cycles) {
		t.Errorf("decoupling must monotonically help: full=%d noMem=%d none=%d",
			rFull.Cycles, rNoMem.Cycles, rNone.Cycles)
	}
	// All functional results identical.
	if rFull.RetValue != rNone.RetValue || rFull.RetValue != rNoMem.RetValue {
		t.Error("decoupling variants diverge functionally")
	}
}

func TestCoreCountScaling(t *testing.T) {
	p, f := buildMixed(t, 2000)
	var prev int64 = 1 << 62
	for _, n := range []int{2, 4, 8, 16} {
		comp := compileFor(t, p, f, hcc.V3, 2000)
		res, err := Run(context.Background(), p, comp, f, HelixRC(n), 2000)
		if err != nil {
			t.Fatalf("cores=%d: %v", n, err)
		}
		if res.Cycles > prev+prev/10 {
			t.Errorf("cores=%d slower than fewer cores: %d > %d", n, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func TestAbstractTLP(t *testing.T) {
	p, f := buildMixed(t, 2000)
	comp := compileFor(t, p, f, hcc.V3, 2000)
	res, err := Run(context.Background(), p, comp, f, Abstract(16), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if tlp := res.TLP(); tlp < 2 || tlp > 16 {
		t.Errorf("abstract TLP = %.2f, expected within (2,16)", tlp)
	}
}

func TestOverheadAccounting(t *testing.T) {
	p, f := buildMixed(t, 600)
	comp := compileFor(t, p, f, hcc.V3, 600)
	res, err := Run(context.Background(), p, comp, f, HelixRC(16), 600)
	if err != nil {
		t.Fatal(err)
	}
	o := res.Overheads
	if o.Total() == 0 {
		t.Error("no overhead recorded at all")
	}
	shares := o.Shares()
	var sum float64
	for _, s := range shares {
		if s < 0 || s > 1 {
			t.Errorf("share out of range: %v", shares)
		}
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %f", sum)
	}
	if o.WaitSignal == 0 {
		t.Error("wait/signal instructions should be counted")
	}
	if res.SegEntries == 0 || res.AvgSegInstrs() <= 0 {
		t.Error("segment statistics missing")
	}
}

func TestSequentialBaselineDeterministic(t *testing.T) {
	p, f := buildMixed(t, 300)
	r1, err := Run(context.Background(), p, nil, f, Conventional(16), 300)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), p, nil, f, Conventional(16), 300)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.RetValue != r2.RetValue {
		t.Error("sequential simulation must be deterministic")
	}
	want, _ := interp.Run(p, f, 0, 300)
	if r1.RetValue != want.RetValue {
		t.Errorf("sim functional result %d != interp %d", r1.RetValue, want.RetValue)
	}
}

func TestLowTripCountLoop(t *testing.T) {
	// 5 iterations on 16 cores: most cores idle; result must stay exact.
	p, f := buildMixed(t, 5)
	want, _ := interp.Run(p, f, 0, 5)
	comp, err := hcc.Compile(p, f, hcc.Options{Level: hcc.V3, Cores: 16, TrainArgs: []int64{5}, MinSpeedup: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Loops) == 0 {
		t.Skip("tiny loop not selected")
	}
	res, err := Run(context.Background(), p, comp, f, HelixRC(16), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.RetValue != want.RetValue {
		t.Fatalf("result %d != %d", res.RetValue, want.RetValue)
	}
	if res.Overheads.LowTripCount == 0 {
		t.Error("low-trip-count overhead should be visible")
	}
}

func TestLinkLatencySensitivity(t *testing.T) {
	p, f := buildMixed(t, 2000)
	comp := compileFor(t, p, f, hcc.V3, 2000)
	var prev int64
	for _, lat := range []int{1, 8, 32} {
		arch := HelixRC(16)
		arch.Ring.LinkLatency = lat
		res, err := Run(context.Background(), p, comp, f, arch, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles < prev {
			t.Errorf("latency %d should not be faster than lower latency (%d < %d)", lat, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}
