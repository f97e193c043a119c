package ir

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Block is a basic block: a straight-line run of instructions ended by a
// branch (OpBr, OpCondBr or OpRet).
type Block struct {
	Name   string
	Index  int // position within Function.Blocks
	Instrs []Instr
}

// Terminator returns the block's final instruction, or nil if the block is
// empty or not yet terminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := &b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsBranch() {
		return nil
	}
	return t
}

// Succs appends the block's successor blocks to dst and returns it.
func (b *Block) Succs(dst []*Block) []*Block {
	t := b.Terminator()
	if t == nil {
		return dst
	}
	switch t.Op {
	case OpBr:
		dst = append(dst, t.Target)
	case OpCondBr:
		dst = append(dst, t.Target, t.Els)
	}
	return dst
}

// Function is a procedure: an entry block plus additional blocks, with
// NumRegs virtual registers. Params names the registers that receive
// arguments, in order.
type Function struct {
	Name    string
	Params  []Reg
	Blocks  []*Block
	NumRegs int
	// RegsFrom, when set, marks a compiler-generated loop body whose
	// register file is initialized from this parent function's frame at
	// runtime (HELIX iteration dispatch). Analyses must treat registers
	// below RegsFrom.NumRegs as aliases of the parent's.
	RegsFrom *Function
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// NewReg allocates a fresh virtual register.
func (f *Function) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// String dumps the function in a readable listing.
func (f *Function) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.String())
	}
	sb.WriteString(") {\n")
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Name)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", b.Instrs[i].String())
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Global is a statically allocated memory object.
type Global struct {
	Name string
	Site Site
	Type TypeID
	Addr int64 // word address of the first element
	Size int64 // size in words
	Init []int64
}

// Program is a whole compilation unit: functions plus global memory layout.
type Program struct {
	Name      string
	Funcs     []*Function
	Globals   []*Global
	NextUID   int32
	nextAddr  int64
	nextSite  Site
	typeNames map[TypeID]string
	nextType  TypeID
	base      *Program // the program this one extends, if any (Extend)
}

// Extend returns a program that extends p: it shares p's functions and
// globals, and its UID, address, site and type counters continue p's.
// NewFunction, NewType, NewSite, AddGlobal and AssignUIDs on the
// extension never write p, so HCC adds its loop bodies, slots and types
// to an extension of its input while other readers share the input.
// Extend a numbered program (AssignUIDs), or the extension's AssignUIDs
// numbers p's instructions in place.
func (p *Program) Extend() *Program {
	q := *p
	q.Funcs = slices.Clip(p.Funcs)
	q.Globals = slices.Clip(p.Globals)
	q.typeNames = maps.Clone(p.typeNames)
	q.base = p
	return &q
}

// Base returns the program p extends, or nil if p was not made by Extend.
func (p *Program) Base() *Program { return p.base }

// AssignUIDs numbers every instruction that does not yet have a UID and
// returns the total UID count. Analyses key results by these ids. A
// program is numbered once, when it is built (workloads.Get, the
// difftest builders) or by HCC on a caller-built input; HCC calls it
// again on its extension so the cloned loop bodies get fresh ids.
func (p *Program) AssignUIDs() int {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].UID < 0 {
					b.Instrs[i].UID = p.NextUID
					p.NextUID++
				}
			}
		}
	}
	return int(p.NextUID)
}

// NewProgram returns an empty program. Globals are laid out from a high
// base address so that small integer constants (masks, strides, bounds)
// are never mistaken for pointers by the address-constant recognition in
// the alias analysis; address 0 stays an invalid pointer.
func NewProgram(name string) *Program {
	return &Program{
		Name:      name,
		nextAddr:  1 << 20,
		typeNames: map[TypeID]string{TypeAny: "any"},
		nextType:  1,
	}
}

// NewType registers a named data type and returns its id.
func (p *Program) NewType(name string) TypeID {
	id := p.nextType
	p.nextType++
	p.typeNames[id] = name
	return id
}

// TypeName returns the registered name for a type id.
func (p *Program) TypeName(t TypeID) string {
	if n, ok := p.typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("type%d", t)
}

// NewSite allocates a fresh static allocation-site id for OpAlloc
// instructions built by the front end.
func (p *Program) NewSite() Site {
	s := p.nextSite
	p.nextSite++
	return s
}

// NumSites returns the number of allocation sites (globals included).
func (p *Program) NumSites() int { return int(p.nextSite) }

// AddGlobal lays out a global of size words and returns it. Each global is
// its own allocation site.
func (p *Program) AddGlobal(name string, size int64, typ TypeID) *Global {
	g := &Global{
		Name: name,
		Site: p.NewSite(),
		Type: typ,
		Addr: p.nextAddr,
		Size: size,
	}
	p.nextAddr += size
	p.Globals = append(p.Globals, g)
	return g
}

// ArenaBase returns the first word address available to runtime OpAlloc.
func (p *Program) ArenaBase() int64 { return p.nextAddr }

// NewFunction creates an empty function with an entry block and registers
// it with the program.
func (p *Program) NewFunction(name string, nparams int) *Function {
	f := &Function{Name: name}
	for i := 0; i < nparams; i++ {
		f.Params = append(f.Params, f.NewReg())
	}
	entry := &Block{Name: "entry", Index: 0}
	f.Blocks = []*Block{entry}
	p.Funcs = append(p.Funcs, f)
	return f
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Function {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// SiteOfGlobal returns the global owning the site, or nil for heap sites.
func (p *Program) SiteOfGlobal(s Site) *Global {
	for _, g := range p.Globals {
		if g.Site == s {
			return g
		}
	}
	return nil
}

// Verify checks structural invariants of every function (VerifyFunc).
func (p *Program) Verify() error {
	for _, f := range p.Funcs {
		if err := p.VerifyFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// VerifyFunc checks f's structural invariants: every block's Index is
// its position, every block is terminated, branch targets belong to f,
// register indices are in range, and call instructions name a callee or
// an extern summary.
func (p *Program) VerifyFunc(f *Function) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: function %s has no blocks", f.Name)
	}
	inFunc := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		inFunc[b] = true
	}
	for i, b := range f.Blocks {
		if b.Index != i {
			return fmt.Errorf("ir: %s.%s has Index %d at position %d", f.Name, b.Name, b.Index, i)
		}
		if len(b.Instrs) == 0 || b.Terminator() == nil {
			return fmt.Errorf("ir: %s.%s is not terminated", f.Name, b.Name)
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.IsBranch() && i != len(b.Instrs)-1 {
				return fmt.Errorf("ir: %s.%s has branch %q before block end", f.Name, b.Name, in.String())
			}
			if err := p.verifyInstr(f, b, in, inFunc); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Program) verifyInstr(f *Function, b *Block, in *Instr, inFunc map[*Block]bool) error {
	checkReg := func(r Reg) error {
		if r != NoReg && (int(r) < 0 || int(r) >= f.NumRegs) {
			return fmt.Errorf("ir: %s.%s: %q uses out-of-range register %s", f.Name, b.Name, in.String(), r)
		}
		return nil
	}
	var regs []Reg
	regs = in.Uses(regs)
	regs = append(regs, in.Def())
	for _, r := range regs {
		if err := checkReg(r); err != nil {
			return err
		}
	}
	switch in.Op {
	case OpBr:
		if in.Target == nil || !inFunc[in.Target] {
			return fmt.Errorf("ir: %s.%s: br to foreign or nil block", f.Name, b.Name)
		}
	case OpCondBr:
		if in.Target == nil || in.Els == nil || !inFunc[in.Target] || !inFunc[in.Els] {
			return fmt.Errorf("ir: %s.%s: condbr to foreign or nil block", f.Name, b.Name)
		}
	case OpCall:
		if in.Callee == nil && in.Extern == nil {
			return fmt.Errorf("ir: %s.%s: call with neither callee nor extern summary", f.Name, b.Name)
		}
		if in.Callee != nil && len(in.Args) != len(in.Callee.Params) {
			return fmt.Errorf("ir: %s.%s: call %s with %d args, want %d",
				f.Name, b.Name, in.Callee.Name, len(in.Args), len(in.Callee.Params))
		}
	case OpWait, OpSignal:
		if in.Seg < 0 {
			return fmt.Errorf("ir: %s.%s: %s with negative segment", f.Name, b.Name, in.Op)
		}
	}
	return nil
}
