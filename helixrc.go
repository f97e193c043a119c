// Package helixrc is a from-scratch reproduction of "HELIX-RC: An
// Architecture-Compiler Co-Design for Automatic Parallelization of
// Irregular Programs" (Campanoni et al., ISCA 2014).
//
// The library bundles:
//
//   - a compiler IR with builder, verifier and interpreter;
//   - the HCC compiler family (HCCv1/v2/v3): alias-tier dependence
//     analysis, predictable-variable recomputation, sequential-segment
//     formation, wait/signal code generation and profile-driven loop
//     selection;
//   - a multicore simulator with in-order and out-of-order core models, a
//     conventional cache hierarchy with pull-based coherence, and the
//     paper's ring cache (proactive value/signal circulation);
//   - ten SPEC CPU2000 benchmark analogues and an experiment harness that
//     regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	w, _ := helixrc.LoadWorkload("175.vpr")
//	comp, _ := helixrc.Compile(w.Prog, w.Entry, helixrc.Options{Level: helixrc.V3, Cores: 16, TrainArgs: w.TrainArgs})
//	seq, _ := helixrc.Simulate(w.Prog, nil, w.Entry, helixrc.Conventional(16), w.RefArgs...)
//	par, _ := helixrc.Simulate(w.Prog, comp, w.Entry, helixrc.HelixRC(16), w.RefArgs...)
//	fmt.Printf("speedup: %.2fx\n", helixrc.Speedup(seq, par))
package helixrc

import (
	"context"

	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// Core IR types, re-exported so programs can be constructed against the
// public package. See internal/ir for full documentation.
type (
	// Program is a compilation unit: functions plus global memory layout.
	Program = ir.Program
	// Function is a procedure of basic blocks over virtual registers.
	Function = ir.Function
	// Block is a basic block.
	Block = ir.Block
	// Builder emits instructions fluently.
	Builder = ir.Builder
	// Reg names a virtual register.
	Reg = ir.Reg
	// Value is an instruction operand (register or immediate).
	Value = ir.Value
	// MemAttrs carries the static metadata of a memory access.
	MemAttrs = ir.MemAttrs
	// Extern summarizes an external library function.
	Extern = ir.Extern
	// Op is an instruction opcode.
	Op = ir.Op
)

// Compiler types.
type (
	// Level selects the compiler generation (V1, V2, V3).
	Level = hcc.Level
	// Options configures a compilation.
	Options = hcc.Options
	// Compiled is a compiled program: selected loops plus their parallel
	// bodies and plans.
	Compiled = hcc.Compiled
	// ParallelLoop is one parallelized loop.
	ParallelLoop = hcc.ParallelLoop
)

// Simulator types.
type (
	// Platform describes the simulated machine.
	Platform = sim.Config
	// Result is a simulation outcome: cycles, instructions, overheads.
	Result = sim.Result
	// Overheads is the Figure 12 overhead taxonomy.
	Overheads = sim.Overheads
)

// Workload is a benchmark analogue from the suite.
type Workload = workloads.Workload

// Compiler generations.
const (
	V1 = hcc.V1
	V2 = hcc.V2
	V3 = hcc.V3
)

// Common opcodes, re-exported for program construction. The full set
// lives in internal/ir.
const (
	OpAdd   = ir.OpAdd
	OpSub   = ir.OpSub
	OpMul   = ir.OpMul
	OpDiv   = ir.OpDiv
	OpRem   = ir.OpRem
	OpAnd   = ir.OpAnd
	OpOr    = ir.OpOr
	OpXor   = ir.OpXor
	OpShl   = ir.OpShl
	OpShr   = ir.OpShr
	OpCmpEQ = ir.OpCmpEQ
	OpCmpNE = ir.OpCmpNE
	OpCmpLT = ir.OpCmpLT
	OpCmpLE = ir.OpCmpLE
	OpCmpGT = ir.OpCmpGT
	OpCmpGE = ir.OpCmpGE
	OpMin   = ir.OpMin
	OpMax   = ir.OpMax
	OpFAdd  = ir.OpFAdd
	OpFSub  = ir.OpFSub
	OpFMul  = ir.OpFMul
	OpFDiv  = ir.OpFDiv
)

// NewProgram returns an empty program.
func NewProgram(name string) *Program { return ir.NewProgram(name) }

// NewBuilder returns a builder positioned at fn's entry block.
func NewBuilder(p *Program, fn *Function) *Builder { return ir.NewBuilder(p, fn) }

// R returns a register operand.
func R(r Reg) Value { return ir.R(r) }

// C returns a constant operand.
func C(v int64) Value { return ir.C(v) }

// Compile runs the HCC pipeline (profiling, dependence analysis, loop
// selection, wait/signal code generation) on prog. It only reads prog,
// apart from numbering its instructions once if they are not numbered
// yet: the parallel loop bodies go into comp.Prog, a new program that
// extends prog, so one program may be compiled any number of times.
func Compile(prog *Program, entry *Function, opts Options) (*Compiled, error) {
	return hcc.Compile(prog, entry, opts)
}

// Simulate runs entry(args...) on the platform. Pass comp == nil for the
// sequential baseline; otherwise Simulate executes comp.Prog, and prog
// must be comp's input or comp.Prog. The functional result and cycle
// counts are exact and deterministic.
func Simulate(prog *Program, comp *Compiled, entry *Function, platform Platform, args ...int64) (*Result, error) {
	return sim.Run(context.Background(), prog, comp, entry, platform, args...)
}

// SimulateContext is Simulate with a cancellation context: the simulator
// polls ctx on its step-accounting path and returns ctx.Err() promptly
// (with a partial Result's worth of progress discarded) when the context
// is cancelled or its deadline passes.
func SimulateContext(ctx context.Context, prog *Program, comp *Compiled, entry *Function, platform Platform, args ...int64) (*Result, error) {
	return sim.Run(ctx, prog, comp, entry, platform, args...)
}

// Interpret executes entry(args...) functionally (no timing) and returns
// its result — handy for writing tests against new programs.
func Interpret(prog *Program, entry *Function, args ...int64) (int64, error) {
	res, err := interp.Run(prog, entry, 0, args...)
	return res.RetValue, err
}

// HelixRC returns the paper's default platform: n in-order 2-way cores
// plus a ring cache (1KB/node, single-cycle links, five-signal bandwidth).
func HelixRC(cores int) Platform { return sim.HelixRC(cores) }

// Conventional returns the same platform without a ring cache; shared
// data and synchronization use the coherent cache hierarchy (10-cycle
// cache-to-cache transfers).
func Conventional(cores int) Platform { return sim.Conventional(cores) }

// Speedup divides the baseline's cycles by the parallel run's.
func Speedup(seq, par *Result) float64 { return sim.Speedup(seq, par) }

// Workloads lists the benchmark suite in the paper's order.
func Workloads() []string { return workloads.Names() }

// LoadWorkload builds a benchmark analogue by name (e.g. "164.gzip").
// Compiling and simulating only read it, so one load serves any number
// of compiles and runs.
func LoadWorkload(name string) (*Workload, error) { return workloads.Get(name) }
