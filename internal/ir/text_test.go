package ir

import (
	"strings"
	"testing"
)

// buildTextProg hand-builds a program exercising every serialized field:
// globals with initializers, an extern with a summary, offsets,
// immediates, calls with mixed args, and a void call.
func buildTextProg() (*Program, *Function, *Extern) {
	p := NewProgram("tp")
	ty := p.NewType("box")
	g := p.AddGlobal("boxes", 4, ty)
	g.Init = []int64{3, -1, 0, 9}
	ext := &Extern{Name: "hash", ReadsMem: true, ArgsOnly: false, Latency: 9,
		Result: func(a []int64) int64 { return a[0] * 7 }}

	leaf := p.NewFunction("leaf", 2)
	lb := NewBuilder(p, leaf)
	lb.Ret(R(leaf.Params[0]))

	f := p.NewFunction("main", 1)
	b := NewBuilder(p, f)
	base := b.Const(g.Addr)
	v := b.Load(R(base), 2, MemAttrs{Type: ty, Path: "boxes[]"})
	h := b.Alloc(8, ty)
	b.Store(R(h), 3, R(v), MemAttrs{Type: ty, Path: "heap[]"})
	r := b.Call(leaf, R(v), C(-12))
	e := b.CallExtern(ext, R(r))
	// A void call: dst explicitly cleared.
	in := NewInstr(OpCall)
	in.Callee = leaf
	in.Args = []Value{C(1), C(2)}
	f.Entry().Instrs = append(f.Entry().Instrs, in)
	tgt, els := b.NewBlock("then"), b.NewBlock("join")
	b.CondBr(R(e), tgt, els)
	b.SetBlock(tgt)
	b.Br(els)
	b.SetBlock(els)
	b.Ret(R(e))
	return p, f, ext
}

func TestTextHandBuiltRoundTrip(t *testing.T) {
	p, f, ext := buildTextProg()
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	text := p.Text(f)
	q, qf, err := ParseText(text, map[string]*Extern{"hash": ext})
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, text)
	}
	if err := q.Verify(); err != nil {
		t.Fatalf("reparsed Verify: %v", err)
	}
	if got := q.Text(qf); got != text {
		t.Fatalf("round-trip not stable:\n%s\nvs\n%s", text, got)
	}
	// The void call must come back with no destination register.
	var void *Instr
	for i := range qf.Entry().Instrs {
		in := &qf.Entry().Instrs[i]
		if in.Op == OpCall && in.Dst == NoReg {
			void = in
		}
	}
	if void == nil || len(void.Args) != 2 {
		t.Fatalf("void call lost in round-trip: %+v", void)
	}
	// Comments and blank lines are ignored.
	commented := "# corpus file\n\n" + text + "\n# trailing\n"
	if _, _, err := ParseText(commented, map[string]*Extern{"hash": ext}); err != nil {
		t.Fatalf("commented parse: %v", err)
	}
}

func TestParseTextErrors(t *testing.T) {
	p, f, _ := buildTextProg()
	text := p.Text(f)
	cases := []struct {
		name string
		src  string
		ext  map[string]*Extern
		want string
	}{
		{"no program", "helixir v1\nentry main\n", nil, "no program"},
		{"bad version", "helixir v9\n", nil, "version"},
		{"unknown op", "program x\nfunc f params=0 regs=1\nblock entry\nfrobnicate dst=r0\n", nil, "opcode"},
		{"missing entry", "program x\nfunc f params=0 regs=0\nblock entry\nret\n", nil, "no entry"},
		{"unknown entry", "program x\nfunc f params=0 regs=0\nblock entry\nret\nentry g\n", nil, "not found"},
		{"undeclared target", "program x\nfunc f params=0 regs=1\nblock entry\nbr tgt=nowhere\nentry f\n", nil, "never declared"},
		{"extern not in registry", text, map[string]*Extern{}, "not in registry"},
		{"extern summary mismatch", text, map[string]*Extern{"hash": {Name: "hash", Latency: 1}}, "disagrees"},
		{"sites without count", "sites\n", nil, "malformed sites"},
		{"sites before program", "sites 3\nprogram x\n", nil, "malformed sites"},
		{"init before program", "init g 1 2\nprogram x\n", nil, "malformed init"},
		{"extern before program", "extern hash\nprogram x\n", nil, "malformed extern"},
	}
	for _, tc := range cases {
		_, _, err := ParseText(tc.src, tc.ext)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}
