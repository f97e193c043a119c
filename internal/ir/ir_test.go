package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{
		OpAdd: "add", OpLoad: "load", OpStore: "store",
		OpWait: "wait", OpSignal: "signal", OpCondBr: "condbr",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestOpClassification(t *testing.T) {
	if !OpAdd.IsArith() || OpLoad.IsArith() || OpBr.IsArith() {
		t.Error("IsArith misclassifies")
	}
	if !OpLoad.IsMem() || !OpStore.IsMem() || OpAdd.IsMem() {
		t.Error("IsMem misclassifies")
	}
	for _, op := range []Op{OpBr, OpCondBr, OpRet} {
		if !op.IsBranch() {
			t.Errorf("%s should be a branch", op)
		}
	}
	if OpAdd.IsBranch() {
		t.Error("add is not a branch")
	}
	if !OpWait.IsSync() || !OpSignal.IsSync() || OpAdd.IsSync() {
		t.Error("IsSync misclassifies")
	}
	if OpStore.HasDst() || OpWait.HasDst() || !OpAdd.HasDst() {
		t.Error("HasDst misclassifies")
	}
	if !OpFAdd.IsFloat() || OpAdd.IsFloat() {
		t.Error("IsFloat misclassifies")
	}
}

func TestValueForms(t *testing.T) {
	r := R(3)
	if !r.IsReg() || r.IsConst() || r.String() != "r3" {
		t.Errorf("R(3) malformed: %+v", r)
	}
	c := C(-7)
	if !c.IsConst() || c.IsReg() || c.String() != "-7" {
		t.Errorf("C(-7) malformed: %+v", c)
	}
	if NoReg.String() != "_" {
		t.Errorf("NoReg.String() = %q", NoReg.String())
	}
}

func TestInstrUsesAndDef(t *testing.T) {
	in := NewInstr(OpAdd)
	in.Dst = 2
	in.A, in.B = R(0), R(1)
	uses := in.Uses(nil)
	if len(uses) != 2 || uses[0] != 0 || uses[1] != 1 {
		t.Errorf("uses = %v", uses)
	}
	if in.Def() != 2 {
		t.Errorf("def = %v", in.Def())
	}
	st := NewInstr(OpStore)
	st.A, st.B = R(4), C(9)
	if st.Def() != NoReg {
		t.Error("store should not define a register")
	}
	if got := st.Uses(nil); len(got) != 1 || got[0] != 4 {
		t.Errorf("store uses = %v", got)
	}
	call := NewInstr(OpCall)
	call.Args = []Value{R(1), C(2), R(3)}
	if got := call.Uses(nil); len(got) != 2 {
		t.Errorf("call uses = %v", got)
	}
}

// buildCountLoop builds: for (i=0; i<n; i++) sum += i; return sum.
func buildCountLoop(p *Program) *Function {
	f := p.NewFunction("count", 1)
	b := NewBuilder(p, f)
	n := f.Params[0]
	i := b.Const(0)
	sum := b.Const(0)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetBlock(head)
	cond := b.Bin(OpCmpLT, R(i), R(n))
	b.CondBr(R(cond), body, exit)
	b.SetBlock(body)
	b.BinTo(sum, OpAdd, R(sum), R(i))
	b.BinTo(i, OpAdd, R(i), C(1))
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(R(sum))
	return f
}

func TestBuilderAndVerify(t *testing.T) {
	p := NewProgram("t")
	buildCountLoop(p)
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	f := p.Func("count")
	if f == nil {
		t.Fatal("Func lookup failed")
	}
	if got := f.String(); !strings.Contains(got, "cmplt") || !strings.Contains(got, "condbr") {
		t.Errorf("dump missing expected instructions:\n%s", got)
	}
}

func TestVerifyCatchesUnterminated(t *testing.T) {
	p := NewProgram("t")
	f := p.NewFunction("bad", 0)
	b := NewBuilder(p, f)
	b.Const(1) // entry block has no terminator
	if err := p.Verify(); err == nil {
		t.Fatal("verify should reject unterminated block")
	}
}

func TestVerifyCatchesForeignBranch(t *testing.T) {
	p := NewProgram("t")
	f1 := p.NewFunction("a", 0)
	f2 := p.NewFunction("b", 0)
	b2 := NewBuilder(p, f2)
	b2.RetVoid()
	b1 := NewBuilder(p, f1)
	b1.Br(f2.Entry()) // branch into another function
	if err := p.Verify(); err == nil {
		t.Fatal("verify should reject cross-function branch")
	}
}

func TestVerifyCatchesBadRegister(t *testing.T) {
	p := NewProgram("t")
	f := p.NewFunction("bad", 0)
	in := NewInstr(OpMov)
	in.Dst = 99
	in.A = C(1)
	f.Entry().Instrs = append(f.Entry().Instrs, in)
	ret := NewInstr(OpRet)
	f.Entry().Instrs = append(f.Entry().Instrs, ret)
	if err := p.Verify(); err == nil {
		t.Fatal("verify should reject out-of-range register")
	}
}

func TestVerifyCatchesBranchMidBlock(t *testing.T) {
	p := NewProgram("t")
	f := p.NewFunction("bad", 0)
	b := NewBuilder(p, f)
	b.RetVoid()
	in := NewInstr(OpNop)
	f.Entry().Instrs = append(f.Entry().Instrs, in) // after the ret
	ret := NewInstr(OpRet)
	f.Entry().Instrs = append(f.Entry().Instrs, ret)
	if err := p.Verify(); err == nil {
		t.Fatal("verify should reject a branch before block end")
	}
}

func TestVerifyCatchesMisnumberedBlock(t *testing.T) {
	p := NewProgram("t")
	f := p.NewFunction("bad", 0)
	b := NewBuilder(p, f)
	a, c := b.NewBlock("a"), b.NewBlock("c")
	b.Br(a)
	b.SetBlock(a).Br(c)
	b.SetBlock(c).RetVoid()
	if err := p.Verify(); err != nil {
		t.Fatalf("well-formed program rejected: %v", err)
	}
	// Swap two blocks without renumbering them: analyses index side
	// tables by Block.Index, so a stale position must not verify.
	f.Blocks[1], f.Blocks[2] = f.Blocks[2], f.Blocks[1]
	err := p.Verify()
	if err == nil || !strings.Contains(err.Error(), "position") {
		t.Fatalf("verify should reject a block whose Index is not its position, got %v", err)
	}
}

func TestGlobalLayout(t *testing.T) {
	p := NewProgram("t")
	ty := p.NewType("arr")
	g1 := p.AddGlobal("a", 100, ty)
	g2 := p.AddGlobal("b", 50, ty)
	if g1.Addr == 0 {
		t.Error("address 0 must stay reserved")
	}
	if g2.Addr < g1.Addr+100 {
		t.Errorf("globals overlap: a@%d+100, b@%d", g1.Addr, g2.Addr)
	}
	if p.ArenaBase() < g2.Addr+50 {
		t.Error("arena overlaps globals")
	}
	if g1.Site == g2.Site {
		t.Error("each global must be its own allocation site")
	}
	if p.TypeName(ty) != "arr" || p.TypeName(TypeAny) != "any" {
		t.Error("type names wrong")
	}
}

func TestAssignUIDs(t *testing.T) {
	p := NewProgram("t")
	buildCountLoop(p)
	n := p.AssignUIDs()
	if n == 0 {
		t.Fatal("no UIDs assigned")
	}
	seen := map[int32]bool{}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				uid := b.Instrs[i].UID
				if uid < 0 || seen[uid] {
					t.Fatalf("bad or duplicate uid %d", uid)
				}
				seen[uid] = true
			}
		}
	}
	// Idempotent for already-numbered instructions.
	if n2 := p.AssignUIDs(); n2 != n {
		t.Errorf("renumbering changed count: %d != %d", n2, n)
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	f := func(x int64) bool {
		return C(x).Imm == x && C(x).IsConst()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(r uint16) bool {
		return R(Reg(r)).Reg == Reg(r) && R(Reg(r)).IsReg()
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}
