package ir

// Textual serialization of front-end IR programs. The differential-test
// corpus (internal/difftest/testdata) stores minimized generated programs
// in this format so that a fuzzer finding replays as an ordinary
// deterministic unit test. The format is line oriented and round-trips
// everything the analyses and the interpreter consume from a front-end
// program: types, globals with layout and initializers, extern summaries
// (by name — the Result closure is resolved against a registry at parse
// time), functions, blocks and instructions with their memory metadata.
//
// Compiler-assigned state (UIDs, Origin, SharedSeg) is deliberately not
// serialized: the corpus stores pristine pre-compile programs, and
// Program.AssignUIDs numbers instructions in program order, so a parsed
// copy compiles identically to the original.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Text serializes the program (with its entry function marked) into the
// corpus format.
func (p *Program) Text(entry *Function) string {
	var sb strings.Builder
	p.WriteText(&sb, entry)
	return sb.String()
}

// WriteText writes the program in the textual corpus format.
func (p *Program) WriteText(w io.Writer, entry *Function) {
	p.writeText(w, entry, func(b *Block) string { return b.Name })
}

// writeText renders the corpus format with block names supplied by
// blockName — the identity function for WriteText, a positional
// canonicalizer for Fingerprint (fingerprint.go).
func (p *Program) writeText(w io.Writer, entry *Function, blockName func(*Block) string) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "helixir v1\n")
	fmt.Fprintf(bw, "program %s\n", p.Name)
	for id := TypeID(1); id < p.nextType; id++ {
		fmt.Fprintf(bw, "type %d %s\n", id, p.typeNames[id])
	}
	fmt.Fprintf(bw, "sites %d\n", p.nextSite)
	for _, g := range p.Globals {
		fmt.Fprintf(bw, "global %s site=%d type=%d addr=%d size=%d\n",
			g.Name, g.Site, g.Type, g.Addr, g.Size)
		if len(g.Init) > 0 {
			fmt.Fprintf(bw, "init %s", g.Name)
			for _, v := range g.Init {
				fmt.Fprintf(bw, " %d", v)
			}
			fmt.Fprintf(bw, "\n")
		}
	}
	for _, ext := range p.externsUsed() {
		fmt.Fprintf(bw, "extern %s reads=%d writes=%d argsonly=%d lat=%d\n",
			ext.Name, b2d(ext.ReadsMem), b2d(ext.WritesMem), b2d(ext.ArgsOnly), ext.Latency)
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(bw, "func %s params=%d regs=%d\n", f.Name, len(f.Params), f.NumRegs)
		for _, b := range f.Blocks {
			fmt.Fprintf(bw, "block %s\n", blockName(b))
			for i := range b.Instrs {
				fmt.Fprintf(bw, "  %s\n", instrText(&b.Instrs[i], blockName))
			}
		}
	}
	if entry != nil {
		fmt.Fprintf(bw, "entry %s\n", entry.Name)
	}
}

// externsUsed collects the distinct extern summaries referenced by call
// instructions, sorted by name for deterministic output.
func (p *Program) externsUsed() []*Extern {
	seen := map[string]*Extern{}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if ext := b.Instrs[i].Extern; ext != nil {
					seen[ext.Name] = ext
				}
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Extern, len(names))
	for i, n := range names {
		out[i] = seen[n]
	}
	return out
}

func b2d(b bool) int {
	if b {
		return 1
	}
	return 0
}

// instrText serializes one instruction as "op key=value ...". Only
// non-default fields are emitted. Branch targets render through
// blockName (see writeText).
func instrText(in *Instr, blockName func(*Block) string) string {
	var sb strings.Builder
	sb.WriteString(in.Op.String())
	field := func(k, v string) {
		sb.WriteByte(' ')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(v)
	}
	if in.Dst != NoReg {
		field("dst", fmt.Sprintf("r%d", in.Dst))
	}
	if in.A.Kind != KindNone {
		field("a", valText(in.A))
	}
	if in.B.Kind != KindNone {
		field("b", valText(in.B))
	}
	if in.Off != 0 {
		field("off", strconv.FormatInt(in.Off, 10))
	}
	if in.Imm != 0 {
		field("imm", strconv.FormatInt(in.Imm, 10))
	}
	if in.Target != nil {
		field("tgt", blockName(in.Target))
	}
	if in.Els != nil {
		field("els", blockName(in.Els))
	}
	if in.Callee != nil {
		field("callee", in.Callee.Name)
	}
	if in.Extern != nil {
		field("extern", in.Extern.Name)
	}
	if in.Op == OpCall {
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = valText(a)
		}
		field("args", strings.Join(args, ","))
	}
	if in.Seg != 0 {
		field("seg", strconv.Itoa(in.Seg))
	}
	if in.HasA {
		field("ret", "1")
	}
	if in.Type != TypeAny {
		field("type", strconv.Itoa(int(in.Type)))
	}
	if in.Alloc != NoSite {
		field("site", strconv.Itoa(int(in.Alloc)))
	}
	if in.Path != "" {
		field("path", strconv.Quote(in.Path))
	}
	return sb.String()
}

func valText(v Value) string {
	switch v.Kind {
	case KindReg:
		return fmt.Sprintf("r%d", v.Reg)
	case KindConst:
		return fmt.Sprintf("c%d", v.Imm)
	default:
		return "_"
	}
}

// opByName inverts Op.String for the parser.
var opByName = func() map[string]Op {
	m := map[string]Op{}
	for op := Op(0); op < opMax; op++ {
		m[op.String()] = op
	}
	return m
}()

// ParseText parses a program in the corpus format. Extern references are
// resolved against the provided registry (keyed by name); the serialized
// flags are cross-checked against the registry entry. Lines starting with
// '#' and blank lines are ignored.
func ParseText(src string, externs map[string]*Extern) (*Program, *Function, error) {
	pr := &parser{externs: externs, blockOf: map[string]*Block{}}
	var entryName string
	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := pr.line(line, &entryName); err != nil {
			return nil, nil, fmt.Errorf("ir: parse line %d: %w", ln+1, err)
		}
	}
	if pr.p == nil {
		return nil, nil, fmt.Errorf("ir: no program directive")
	}
	if err := pr.resolve(); err != nil {
		return nil, nil, err
	}
	if entryName == "" {
		return nil, nil, fmt.Errorf("ir: no entry directive")
	}
	entry := pr.p.Func(entryName)
	if entry == nil {
		return nil, nil, fmt.Errorf("ir: entry function %q not found", entryName)
	}
	return pr.p, entry, nil
}

type pendingCall struct {
	fn     *Function
	block  *Block
	index  int
	callee string
}

type parser struct {
	p       *Program
	externs map[string]*Extern
	f       *Function
	b       *Block
	blockOf map[string]*Block // declared blocks of the current function
	pending map[string]*Block // forward-referenced, not yet declared
	fixups  []pendingCall
	declExt map[string]*Extern
}

func (pr *parser) line(line string, entryName *string) error {
	fields := strings.Fields(line)
	kw := fields[0]
	switch kw {
	case "helixir":
		if len(fields) != 2 || fields[1] != "v1" {
			return fmt.Errorf("unsupported version %q", line)
		}
		return nil
	case "program":
		if len(fields) != 2 {
			return fmt.Errorf("malformed program directive")
		}
		pr.p = NewProgram(fields[1])
		pr.declExt = map[string]*Extern{}
		return nil
	case "type":
		if pr.p == nil || len(fields) != 3 {
			return fmt.Errorf("malformed type directive")
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		got := pr.p.NewType(fields[2])
		if int(got) != id {
			return fmt.Errorf("type id %d declared out of order (assigned %d)", id, got)
		}
		return nil
	case "sites":
		if pr.p == nil || len(fields) != 2 {
			return fmt.Errorf("malformed sites directive")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return err
		}
		pr.p.nextSite = Site(n)
		return nil
	case "global":
		return pr.global(fields)
	case "init":
		return pr.globalInit(fields)
	case "extern":
		return pr.extern(fields)
	case "func":
		return pr.function(fields)
	case "block":
		if pr.f == nil || len(fields) != 2 {
			return fmt.Errorf("block outside function")
		}
		return pr.declareBlock(fields[1])
	case "entry":
		if len(fields) != 2 {
			return fmt.Errorf("malformed entry directive")
		}
		*entryName = fields[1]
		return nil
	default:
		return pr.instr(fields)
	}
}

func (pr *parser) global(fields []string) error {
	if pr.p == nil || len(fields) < 2 {
		return fmt.Errorf("malformed global")
	}
	g := &Global{Name: fields[1]}
	for _, kv := range fields[2:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("malformed global field %q", kv)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return err
		}
		switch k {
		case "site":
			g.Site = Site(n)
		case "type":
			g.Type = TypeID(n)
		case "addr":
			g.Addr = n
		case "size":
			g.Size = n
		default:
			return fmt.Errorf("unknown global field %q", k)
		}
	}
	pr.p.Globals = append(pr.p.Globals, g)
	if end := g.Addr + g.Size; end > pr.p.nextAddr {
		pr.p.nextAddr = end
	}
	return nil
}

func (pr *parser) globalInit(fields []string) error {
	if pr.p == nil || len(fields) < 2 {
		return fmt.Errorf("malformed init")
	}
	var g *Global
	for _, cand := range pr.p.Globals {
		if cand.Name == fields[1] {
			g = cand
		}
	}
	if g == nil {
		return fmt.Errorf("init for unknown global %q", fields[1])
	}
	for _, f := range fields[2:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return err
		}
		g.Init = append(g.Init, v)
	}
	return nil
}

func (pr *parser) extern(fields []string) error {
	if pr.p == nil || len(fields) < 2 {
		return fmt.Errorf("malformed extern")
	}
	name := fields[1]
	decl := &Extern{Name: name}
	for _, kv := range fields[2:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("malformed extern field %q", kv)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		switch k {
		case "reads":
			decl.ReadsMem = n != 0
		case "writes":
			decl.WritesMem = n != 0
		case "argsonly":
			decl.ArgsOnly = n != 0
		case "lat":
			decl.Latency = n
		default:
			return fmt.Errorf("unknown extern field %q", k)
		}
	}
	if reg, ok := pr.externs[name]; ok {
		if reg.ReadsMem != decl.ReadsMem || reg.WritesMem != decl.WritesMem ||
			reg.ArgsOnly != decl.ArgsOnly || reg.Latency != decl.Latency {
			return fmt.Errorf("extern %q summary disagrees with registry", name)
		}
		pr.declExt[name] = reg
		return nil
	}
	if pr.externs != nil {
		return fmt.Errorf("extern %q not in registry", name)
	}
	pr.declExt[name] = decl // no registry: functional result defaults to 0
	return nil
}

func (pr *parser) function(fields []string) error {
	if pr.p == nil || len(fields) != 4 {
		return fmt.Errorf("malformed func")
	}
	var nparams, nregs int
	for _, kv := range fields[2:] {
		k, v, _ := strings.Cut(kv, "=")
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		switch k {
		case "params":
			nparams = n
		case "regs":
			nregs = n
		}
	}
	if err := pr.endFunction(); err != nil {
		return err
	}
	pr.f = pr.p.NewFunction(fields[1], nparams)
	pr.f.NumRegs = nregs
	pr.b = nil
	pr.blockOf = map[string]*Block{"entry": pr.f.Entry()}
	pr.pending = map[string]*Block{}
	return nil
}

// endFunction checks every forward-referenced block of the function just
// parsed was eventually declared.
func (pr *parser) endFunction() error {
	for name := range pr.pending {
		return fmt.Errorf("block %q referenced but never declared in %q", name, pr.f.Name)
	}
	return nil
}

// declareBlock positions a block in declaration order (which fixes
// Block.Index and therefore UID assignment order on compile) and moves
// the insertion point to it. Forward references made before the
// declaration resolve to the same *Block.
func (pr *parser) declareBlock(name string) error {
	if b, ok := pr.blockOf[name]; ok {
		// Only the auto-created entry block may be "declared" after
		// creation; anything else is a duplicate.
		if name != "entry" || len(pr.f.Entry().Instrs) > 0 {
			if name != "entry" {
				return fmt.Errorf("duplicate block %q", name)
			}
		}
		pr.b = b
		return nil
	}
	b, ok := pr.pending[name]
	if ok {
		delete(pr.pending, name)
	} else {
		b = &Block{Name: name}
	}
	b.Index = len(pr.f.Blocks)
	pr.f.Blocks = append(pr.f.Blocks, b)
	pr.blockOf[name] = b
	pr.b = b
	return nil
}

// blockRef resolves a branch-target reference, creating an unpositioned
// placeholder if the block's declaration has not been seen yet.
func (pr *parser) blockRef(name string) *Block {
	if b, ok := pr.blockOf[name]; ok {
		return b
	}
	if b, ok := pr.pending[name]; ok {
		return b
	}
	b := &Block{Name: name}
	pr.pending[name] = b
	return b
}

func (pr *parser) instr(fields []string) error {
	if pr.f == nil || pr.b == nil {
		return fmt.Errorf("instruction outside block: %q", strings.Join(fields, " "))
	}
	op, ok := opByName[fields[0]]
	if !ok {
		return fmt.Errorf("unknown opcode %q", fields[0])
	}
	in := NewInstr(op)
	for _, kv := range fields[1:] {
		k, v, cut := strings.Cut(kv, "=")
		if !cut {
			return fmt.Errorf("malformed field %q", kv)
		}
		switch k {
		case "dst":
			r, err := parseReg(v)
			if err != nil {
				return err
			}
			in.Dst = r
		case "a":
			val, err := parseVal(v)
			if err != nil {
				return err
			}
			in.A = val
		case "b":
			val, err := parseVal(v)
			if err != nil {
				return err
			}
			in.B = val
		case "off":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return err
			}
			in.Off = n
		case "imm":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return err
			}
			in.Imm = n
		case "tgt":
			in.Target = pr.blockRef(v)
		case "els":
			in.Els = pr.blockRef(v)
		case "callee":
			pr.fixups = append(pr.fixups, pendingCall{
				fn: pr.f, block: pr.b, index: len(pr.b.Instrs), callee: v,
			})
		case "extern":
			ext, ok := pr.declExt[v]
			if !ok {
				return fmt.Errorf("extern %q not declared", v)
			}
			in.Extern = ext
		case "args":
			if v != "" {
				for _, av := range strings.Split(v, ",") {
					val, err := parseVal(av)
					if err != nil {
						return err
					}
					in.Args = append(in.Args, val)
				}
			} else {
				in.Args = []Value{}
			}
		case "seg":
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			in.Seg = n
		case "ret":
			in.HasA = v != "0"
		case "type":
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			in.Type = TypeID(n)
		case "site":
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			in.Alloc = Site(n)
		case "path":
			s, err := strconv.Unquote(v)
			if err != nil {
				return fmt.Errorf("malformed path %q: %w", v, err)
			}
			in.Path = s
		default:
			return fmt.Errorf("unknown instruction field %q", k)
		}
	}
	pr.b.Instrs = append(pr.b.Instrs, in)
	return nil
}

// resolve patches direct-call callees once all functions exist.
func (pr *parser) resolve() error {
	if pr.f != nil {
		if err := pr.endFunction(); err != nil {
			return err
		}
	}
	for _, fix := range pr.fixups {
		callee := pr.p.Func(fix.callee)
		if callee == nil {
			return fmt.Errorf("ir: call to unknown function %q", fix.callee)
		}
		fix.block.Instrs[fix.index].Callee = callee
	}
	return nil
}

func parseReg(s string) (Reg, error) {
	if !strings.HasPrefix(s, "r") {
		return NoReg, fmt.Errorf("malformed register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil {
		return NoReg, err
	}
	return Reg(n), nil
}

func parseVal(s string) (Value, error) {
	switch {
	case s == "_":
		return Value{}, nil
	case strings.HasPrefix(s, "r"):
		r, err := parseReg(s)
		if err != nil {
			return Value{}, err
		}
		return R(r), nil
	case strings.HasPrefix(s, "c"):
		n, err := strconv.ParseInt(s[1:], 10, 64)
		if err != nil {
			return Value{}, err
		}
		return C(n), nil
	default:
		return Value{}, fmt.Errorf("malformed operand %q", s)
	}
}
