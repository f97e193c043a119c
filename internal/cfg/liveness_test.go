package cfg_test

import (
	"fmt"
	"slices"
	"testing"

	"helixrc/internal/cfg"
	"helixrc/internal/difftest"
	"helixrc/internal/hcc"
	"helixrc/internal/ir"
	"helixrc/internal/irgen"
	"helixrc/internal/scenarios"
	"helixrc/internal/workloads"
)

func TestLivenessStraightLine(t *testing.T) {
	p := ir.NewProgram("t")
	f := p.NewFunction("main", 2)
	b := ir.NewBuilder(p, f)
	x := b.Add(ir.R(f.Params[0]), ir.R(f.Params[1]))
	y := b.Mul(ir.R(x), ir.C(2))
	b.Ret(ir.R(y))
	g := cfg.New(f)
	lv := cfg.ComputeLiveness(g)
	entry := f.Entry()
	if !lv.LiveIn(entry, f.Params[0]) || !lv.LiveIn(entry, f.Params[1]) {
		t.Error("parameters must be live-in at entry")
	}
	if lv.LiveIn(entry, x) || lv.LiveIn(entry, y) {
		t.Error("locally defined temps must not be live-in")
	}
}

func TestLivenessAroundLoop(t *testing.T) {
	// for (i=0; i<n; i++) sum += i; return sum — i and sum are live at the
	// header; a body-local temp is not.
	p := ir.NewProgram("t")
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	n := f.Params[0]
	i := b.Const(0)
	sum := b.Const(0)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	c := b.Bin(ir.OpCmpLT, ir.R(i), ir.R(n))
	b.CondBr(ir.R(c), body, exit)
	b.SetBlock(body)
	tmp := b.Mul(ir.R(i), ir.C(3))
	b.BinTo(sum, ir.OpAdd, ir.R(sum), ir.R(tmp))
	b.BinTo(i, ir.OpAdd, ir.R(i), ir.C(1))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(ir.R(sum))
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	g := cfg.New(f)
	forest := cfg.FindLoops(g)
	lv := cfg.ComputeLiveness(g)
	hdr := lv.LiveAtHeader(forest.Loops[0])
	for _, r := range []ir.Reg{i, sum, n} {
		if !hdr[r] {
			t.Errorf("r%d must be live at the loop header", r)
		}
	}
	if hdr[tmp] {
		t.Error("body-local temp must not be live at the header")
	}
	if hdr[c] {
		t.Error("the condition temp must not be live around the backedge")
	}
}

func TestLivenessDiamondPartialDef(t *testing.T) {
	// x defined only on one branch: it stays live-in at entry when read
	// at the join (the other path carries the incoming value).
	p := ir.NewProgram("t")
	f := p.NewFunction("main", 2)
	b := ir.NewBuilder(p, f)
	x := f.Params[1]
	then := b.NewBlock("then")
	join := b.NewBlock("join")
	b.CondBr(ir.R(f.Params[0]), then, join)
	b.SetBlock(then)
	b.MovTo(x, ir.C(7))
	b.Br(join)
	b.SetBlock(join)
	b.Ret(ir.R(x))
	g := cfg.New(f)
	lv := cfg.ComputeLiveness(g)
	if !lv.LiveIn(f.Entry(), x) {
		t.Error("partially defined register must remain live-in")
	}
	if !lv.LiveOut(f.Entry(), x) {
		t.Error("x is live-out of the entry block via the fallthrough path")
	}
}

// refLiveness is the map-based liveness ComputeLiveness replaced, kept
// as the reference model: the same backward dataflow over one
// map[ir.Reg]bool per block and direction.
func refLiveness(g *cfg.Graph) (liveIn, liveOut []map[ir.Reg]bool) {
	f := g.Fn
	n := len(f.Blocks)
	liveIn, liveOut = make([]map[ir.Reg]bool, n), make([]map[ir.Reg]bool, n)
	use := make([]map[ir.Reg]bool, n)
	def := make([]map[ir.Reg]bool, n)
	for _, b := range f.Blocks {
		u, d := map[ir.Reg]bool{}, map[ir.Reg]bool{}
		var scratch []ir.Reg
		for i := range b.Instrs {
			in := &b.Instrs[i]
			scratch = scratch[:0]
			for _, r := range in.Uses(scratch) {
				if !d[r] {
					u[r] = true
				}
			}
			if dr := in.Def(); dr != ir.NoReg {
				d[dr] = true
			}
		}
		use[b.Index], def[b.Index] = u, d
		liveIn[b.Index] = map[ir.Reg]bool{}
		liveOut[b.Index] = map[ir.Reg]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.RPO[i]
			out := liveOut[b.Index]
			for _, s := range g.Succs[b.Index] {
				for r := range liveIn[s.Index] {
					if !out[r] {
						out[r] = true
						changed = true
					}
				}
			}
			in := liveIn[b.Index]
			for r := range use[b.Index] {
				if !in[r] {
					in[r] = true
					changed = true
				}
			}
			for r := range out {
				if !def[b.Index][r] && !in[r] {
					in[r] = true
					changed = true
				}
			}
		}
	}
	return liveIn, liveOut
}

// sortedRegs lists a register set in ascending order.
func sortedRegs(m map[ir.Reg]bool) []ir.Reg {
	var rs []ir.Reg
	for r := range m {
		rs = append(rs, r)
	}
	slices.Sort(rs)
	return rs
}

// requireLivenessMatchesRef compares ComputeLiveness with the reference
// model on every block of every function of p: the same live-in set
// (through LiveInRegs and LiveIn) and the same live-out set (through
// LiveOut) for every register the function names.
func requireLivenessMatchesRef(t *testing.T, what string, p *ir.Program) {
	t.Helper()
	for _, fn := range p.Funcs {
		g := cfg.New(fn)
		lv := cfg.ComputeLiveness(g)
		refIn, refOut := refLiveness(g)
		for _, b := range fn.Blocks {
			want := sortedRegs(refIn[b.Index])
			if got := lv.LiveInRegs(nil, b); !slices.Equal(got, want) {
				t.Fatalf("%s: %s/%s live-in = %v, reference %v", what, fn.Name, b.Name, got, want)
			}
			outs := 0
			for r := ir.Reg(0); int(r) < fn.NumRegs; r++ {
				if lv.LiveIn(b, r) != refIn[b.Index][r] {
					t.Fatalf("%s: %s/%s LiveIn(r%d) = %v, reference %v", what, fn.Name, b.Name, r, !refIn[b.Index][r], refIn[b.Index][r])
				}
				if lv.LiveOut(b, r) != refOut[b.Index][r] {
					t.Fatalf("%s: %s/%s LiveOut(r%d) = %v, reference %v", what, fn.Name, b.Name, r, !refOut[b.Index][r], refOut[b.Index][r])
				}
				if refOut[b.Index][r] {
					outs++
				}
			}
			if outs != len(refOut[b.Index]) {
				t.Fatalf("%s: %s/%s reference live-out names registers outside 0..%d", what, fn.Name, b.Name, fn.NumRegs-1)
			}
		}
	}
}

// TestLivenessMatchesMapModel pins the bitset liveness to the map-based
// reference on every SPEC analogue and scenario, before and after each
// HCC level's compile (loop-body clones included), on every difftest
// corpus program and on irgen seeds 0-199.
func TestLivenessMatchesMapModel(t *testing.T) {
	for _, f := range irgen.Families() {
		pack, err := scenarios.DefaultPack(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := scenarios.RegisterPack(pack); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("workloads", func(t *testing.T) {
		for _, name := range workloads.Registered() {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				w, err := workloads.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				requireLivenessMatchesRef(t, "source", w.Prog)
				prof, err := hcc.Train(w.Prog, w.Entry, hcc.Options{Cores: 16, TrainArgs: w.TrainArgs})
				if err != nil {
					t.Fatal(err)
				}
				for _, level := range []hcc.Level{hcc.V1, hcc.V2, hcc.V3} {
					w, err := workloads.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					c, err := hcc.CompileWith(w.Prog, w.Entry, hcc.Options{Level: level, Cores: 16, TrainArgs: w.TrainArgs}, prof)
					if err != nil {
						t.Fatal(err)
					}
					requireLivenessMatchesRef(t, level.String(), c.Prog)
				}
			})
		}
	})
	t.Run("corpus", func(t *testing.T) {
		files, err := difftest.CorpusFiles("../difftest/testdata")
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatal("no difftest corpus files found")
		}
		for _, path := range files {
			text, _, err := difftest.LoadCorpusFile(path)
			if err != nil {
				t.Fatal(err)
			}
			p, _, err := ir.ParseText(text, irgen.Externs)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			requireLivenessMatchesRef(t, path, p)
		}
	})
	t.Run("irgen", func(t *testing.T) {
		for seed := uint64(0); seed < 200; seed++ {
			p, _, _ := irgen.Generate(seed)
			requireLivenessMatchesRef(t, fmt.Sprintf("irgen seed %d", seed), p)
		}
	})
}

// chainFunction builds a function of n blocks in a chain, each
// defining perBlock fresh registers from its predecessor's, so every
// block has live-in and live-out registers across many set words.
func chainFunction(n, perBlock int) *ir.Function {
	p := ir.NewProgram("chain")
	f := p.NewFunction("main", 1)
	b := ir.NewBuilder(p, f)
	prev := f.Params[0]
	for i := 0; i < n; i++ {
		for k := 0; k < perBlock; k++ {
			prev = b.Add(ir.R(prev), ir.C(int64(k)))
		}
		if i < n-1 {
			next := b.NewBlock(fmt.Sprintf("b%d", i+1))
			b.Br(next)
			b.SetBlock(next)
		}
	}
	b.Ret(ir.R(prev))
	return f
}

// TestLivenessAllocs pins ComputeLiveness at two allocations per call —
// the Liveness and its one backing array — whatever the block and
// register counts: it runs once per candidate loop of every compile.
func TestLivenessAllocs(t *testing.T) {
	for _, fn := range []*ir.Function{chainFunction(1, 2), chainFunction(300, 5)} {
		g := cfg.New(fn)
		allocs := testing.AllocsPerRun(10, func() { cfg.ComputeLiveness(g) })
		if allocs != 2 {
			t.Errorf("ComputeLiveness(%d blocks, %d registers) allocates %.0f objects, want 2",
				len(fn.Blocks), fn.NumRegs, allocs)
		}
	}
}
