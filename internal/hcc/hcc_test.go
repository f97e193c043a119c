package hcc

import (
	"testing"

	"helixrc/internal/ir"
)

// buildVprLike builds the Figure 5 pattern: a counted hot loop where one
// path updates a shared memory cell (a genuine loop-carried dependence)
// and the other does private work. The shared cell update is conditional
// on loaded data, so the compiler must synchronize every iteration.
//
//	for (i = 0; i < n; i++) {
//	    v = data[i]             // private, read-only
//	    if (v & 1) { cost = cost + v }   // cost is in memory
//	    out[i] = v * 3          // private
//	}
func buildVprLike(t testing.TB, n int64) (*ir.Program, *ir.Function) {
	p := ir.NewProgram("vprlike")
	tyData := p.NewType("data[]")
	tyOut := p.NewType("out[]")
	tyCost := p.NewType("cost")
	data := p.AddGlobal("data", n, tyData)
	for i := int64(0); i < n; i++ {
		data.Init = append(data.Init, i*7%13)
	}
	out := p.AddGlobal("out", n, tyOut)
	cost := p.AddGlobal("cost", 1, tyCost)

	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	nr := f.Params[0]
	dbase := b.GlobalAddr(data)
	obase := b.GlobalAddr(out)
	cbase := b.GlobalAddr(cost)
	i := b.Const(0)

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
	odd := b.Bin(ir.OpAnd, ir.R(v), ir.C(1))
	b.CondBr(ir.R(odd), then, cont)

	b.SetBlock(then)
	cv := b.Load(ir.R(cbase), 0, ir.MemAttrs{Type: tyCost, Path: "cost"})
	ncv := b.Add(ir.R(cv), ir.R(v))
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
	b.Ret(ir.R(fv))
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p, f
}

func TestCompileSelectsHotLoop(t *testing.T) {
	p, f := buildVprLike(t, 400)
	comp, err := Compile(p, f, Options{Level: V3, Cores: 16, TrainArgs: []int64{400}})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Loops) != 1 {
		for _, rej := range comp.Rejected {
			t.Logf("rejected %v: %s (est %.2f)", rej.Loop, rej.Reason, rej.Estimate)
		}
		t.Fatalf("selected %d loops, want 1", len(comp.Loops))
	}
	pl := comp.Loops[0]
	if !pl.Counted {
		t.Error("this for-loop should be counted")
	}
	if pl.Coverage < 0.8 {
		t.Errorf("coverage = %.2f, want > 0.8", pl.Coverage)
	}
	if len(pl.Recompute) == 0 {
		t.Error("induction register should be recomputed")
	}
	// The cost cell forms one memory segment; with a counted loop there is
	// no control segment traffic.
	memberSegs := map[int]bool{}
	for _, b := range pl.Body.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].SharedSeg >= 0 {
				memberSegs[b.Instrs[i].SharedSeg] = true
			}
		}
	}
	if len(memberSegs) != 1 {
		t.Errorf("expected exactly 1 active segment, got %v", memberSegs)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("program invalid after codegen: %v", err)
	}
}

func TestBodyHasWaitAndSignalOnAllPaths(t *testing.T) {
	p, f := buildVprLike(t, 400)
	comp, err := Compile(p, f, Options{Level: V3, Cores: 16, TrainArgs: []int64{400}})
	if err != nil || len(comp.Loops) != 1 {
		t.Fatalf("compile: %v loops=%d", err, len(comp.Loops))
	}
	body := comp.Loops[0].Body
	waits, signals := 0, 0
	for _, b := range body.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpWait:
				waits++
			case ir.OpSignal:
				signals++
			}
		}
	}
	if waits == 0 {
		t.Error("no wait instructions generated")
	}
	// Signals must exist on both the access path and the bypass path.
	if signals < 2 {
		t.Errorf("expected signals on multiple paths, got %d", signals)
	}
}

func TestV1VsV3Segmentation(t *testing.T) {
	p, f := buildVprLike(t, 400)
	v1, err := Compile(p, f, Options{Level: V1, Cores: 16, TrainArgs: []int64{400}, SelectLatency: 5, MinSpeedup: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// HCCv1 merges everything into segment 0 when it selects the loop at
	// all; if it rejects the loop, that is also the paper's story (small
	// loops are unprofitable under conventional latency).
	for _, pl := range v1.Loops {
		for _, s := range pl.Segments {
			if s.ID != 0 {
				t.Errorf("HCCv1 should have only segment 0, got %d", s.ID)
			}
		}
	}
}

func TestLevelFlags(t *testing.T) {
	if V1.SplitsAggressively() || V2.SplitsAggressively() || !V3.SplitsAggressively() {
		t.Error("splitting flags wrong")
	}
	if V1.EliminatesWaits() || !V3.EliminatesWaits() {
		t.Error("wait elimination flags wrong")
	}
	if V1.FullPredictability() || !V2.FullPredictability() {
		t.Error("predictability flags wrong")
	}
	if V1.String() != "HCCv1" || V3.String() != "HCCv3" {
		t.Error("level names wrong")
	}
	if V1.AliasTier() == V2.AliasTier() {
		t.Error("V1 must use a weaker alias tier")
	}
}

func TestRejectedLoopReasons(t *testing.T) {
	// A loop with an opaque clobbering call must be rejected.
	p := ir.NewProgram("clob")
	ty := p.NewType("int")
	g := p.AddGlobal("g", 8, ty)
	clob := &ir.Extern{Name: "mystery", ReadsMem: true, WritesMem: true, Latency: 5}
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	n := f.Params[0]
	base := b.GlobalAddr(g)
	i := b.Const(0)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	c := b.Bin(ir.OpCmpLT, ir.R(i), ir.R(n))
	b.CondBr(ir.R(c), body, exit)
	b.SetBlock(body)
	b.Store(ir.R(base), 0, ir.R(i), ir.MemAttrs{Type: ty})
	b.CallExtern(clob)
	b.BinTo(i, ir.OpAdd, ir.R(i), ir.C(1))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(ir.C(0))
	comp, err := Compile(p, f, Options{Level: V3, Cores: 16, TrainArgs: []int64{100}})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Loops) != 0 {
		t.Fatal("loop with opaque clobber call must not be parallelized")
	}
	found := false
	for _, rej := range comp.Rejected {
		if rej.Reason == "opaque library call with memory effects" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected clobber rejection, got %+v", comp.Rejected)
	}
}

// buildTwinHelpers builds main calling two helper functions whose loops
// are identical: equal coverage, equal benefit, and the same loop ID
// (each is loop 0 of its function). Only the functions' positions tell
// the two loops apart.
func buildTwinHelpers(t testing.TB, n int64) (*ir.Program, *ir.Function) {
	p := ir.NewProgram("twins")
	helper := func(name string) *ir.Function {
		ty := p.NewType(name + "[]")
		arr := p.AddGlobal(name, n, ty)
		for i := int64(0); i < n; i++ {
			arr.Init = append(arr.Init, i*5%11)
		}
		f := p.NewFunction(name, 1)
		b := ir.NewBuilder(p, f)
		base := b.GlobalAddr(arr)
		i := b.Const(0)
		head, body, exit := b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("exit")
		b.Br(head)
		b.SetBlock(head)
		c := b.Bin(ir.OpCmpLT, ir.R(i), ir.R(f.Params[0]))
		b.CondBr(ir.R(c), body, exit)
		b.SetBlock(body)
		a := b.Add(ir.R(base), ir.R(i))
		v := b.Load(ir.R(a), 0, ir.MemAttrs{Type: ty, Path: name + "[i]"})
		w := v
		for range 12 {
			w = b.Add(ir.R(b.Mul(ir.R(w), ir.C(3))), ir.R(v))
		}
		b.Store(ir.R(a), 0, ir.R(w), ir.MemAttrs{Type: ty, Path: name + "[i]"})
		b.BinTo(i, ir.OpAdd, ir.R(i), ir.C(1))
		b.Br(head)
		b.SetBlock(exit)
		b.Ret(ir.C(0))
		return f
	}
	ha, hb := helper("twinA"), helper("twinB")
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	ra := b.Call(ha, ir.R(f.Params[0]))
	rb := b.Call(hb, ir.R(f.Params[0]))
	b.Ret(ir.R(b.Add(ir.R(ra), ir.R(rb))))
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p, f
}

// TestTiedLoopsCompileDeterministically pins loop order when two loops
// in different functions tie on coverage, benefit and loop ID: the
// selector and code generation order them by function position, so
// every compilation emits the same program.
func TestTiedLoopsCompileDeterministically(t *testing.T) {
	fps := map[string]bool{}
	for range 20 {
		p, f := buildTwinHelpers(t, 200)
		comp, err := Compile(p, f, Options{Level: V3, Cores: 16, TrainArgs: []int64{200}})
		if err != nil {
			t.Fatal(err)
		}
		if len(comp.Loops) != 2 {
			for _, rej := range comp.Rejected {
				t.Logf("rejected %v in %s: %s (est %.2f)", rej.Loop, rej.Fn.Name, rej.Reason, rej.Estimate)
			}
			t.Fatalf("selected %d loops, want both twins", len(comp.Loops))
		}
		if a, b := comp.Loops[0], comp.Loops[1]; a.Coverage != b.Coverage || a.EstSpeedup != b.EstSpeedup {
			t.Fatalf("twin loops differ: coverage %v/%v, estimate %v/%v", a.Coverage, b.Coverage, a.EstSpeedup, b.EstSpeedup)
		}
		fps[p.Fingerprint(f)] = true
	}
	if len(fps) != 1 {
		t.Errorf("20 compilations produced %d distinct programs", len(fps))
	}
}

// TestFingerprintCoversSimulatedFields pins Compiled.Fingerprint, which
// names traces in the harness: a compile is deterministic, so two
// compiles of one program share a fingerprint, and mutating any
// instruction of a body, any body instruction's shared segment or clone
// flag, or any ParallelLoop field the simulator reads changes it. A
// compile that selects no loop runs its input program and is "".
func TestFingerprintCoversSimulatedFields(t *testing.T) {
	compile := func(minSpeedup float64) *Compiled {
		p, f := buildVprLike(t, 400)
		comp, err := Compile(p, f, Options{Level: V3, Cores: 16, TrainArgs: []int64{400}, MinSpeedup: minSpeedup})
		if err != nil {
			t.Fatal(err)
		}
		return comp
	}
	if fp := compile(1e9).Fingerprint(); fp != "" {
		t.Errorf("loop-free compile has fingerprint %q, want \"\"", fp)
	}
	base := compile(0).Fingerprint()
	if base == "" || compile(0).Fingerprint() != base {
		t.Fatalf("fingerprint %q is empty or not deterministic", base)
	}
	instr := func(pl *ParallelLoop, op ir.Op) *ir.Instr {
		for _, b := range pl.Body.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == op {
					return &b.Instrs[i]
				}
			}
		}
		t.Fatalf("no %v in the body", op)
		return nil
	}
	for name, mutate := range map[string]func(*ParallelLoop){
		"body instruction": func(pl *ParallelLoop) { instr(pl, ir.OpMul).B = ir.C(5) },
		"SharedSeg":        func(pl *ParallelLoop) { instr(pl, ir.OpStore).SharedSeg++ },
		"Origin": func(pl *ParallelLoop) {
			in := instr(pl, ir.OpWait)
			in.Origin = 1 - in.Origin // uncloned <-> cloned
		},
		"Fn":          func(pl *ParallelLoop) { pl.Fn = pl.Body },
		"Header":      func(pl *ParallelLoop) { pl.Header = pl.Fn.Blocks[0] },
		"IterParam":   func(pl *ParallelLoop) { pl.IterParam++ },
		"Counted":     func(pl *ParallelLoop) { pl.Counted = !pl.Counted },
		"CtlAddr":     func(pl *ParallelLoop) { pl.CtlAddr++ },
		"NumSegs":     func(pl *ParallelLoop) { pl.NumSegs++ },
		"SlotOf":      func(pl *ParallelLoop) { pl.SlotOf[0] = 99 },
		"Recompute":   func(pl *ParallelLoop) { pl.Recompute[0] = RecomputeRule{Kind: RecPoly2} },
		"Reductions":  func(pl *ParallelLoop) { pl.Reductions[0] = 1 },
		"LastValue":   func(pl *ParallelLoop) { pl.LastValue[0] = []int32{instr(pl, ir.OpMul).UID} },
		"ExitTargets": func(pl *ParallelLoop) { pl.ExitTargets[0] = pl.Fn.Blocks[0] },
		"LiveOutRegs": func(pl *ParallelLoop) { pl.LiveOutRegs = append(pl.LiveOutRegs, 0) },
	} {
		comp := compile(0)
		mutate(comp.Loops[0])
		if comp.Fingerprint() == base {
			t.Errorf("mutating %s leaves the fingerprint unchanged", name)
		}
	}
}
