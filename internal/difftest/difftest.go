// Package difftest cross-checks every execution path in the repository
// against each other on randomly generated IR programs. For one program
// it asserts six oracle invariants:
//
//  1. functional: HCC-parallelized simulated execution returns the same
//     value as the sequential reference interpreter, at every compiler
//     level and core count (wait/signal placement soundness);
//  2. fast == reference: the pre-decoded fast stepper (sim.Run) and the
//     retained reference stepper (sim.Reference) produce bit-identical
//     sim.Result structs;
//  3. replay == execute: a recorded trace replayed under any
//     configuration matches a fresh execution-driven run under that
//     configuration, including budget-exhaustion partial results;
//  4. alias soundness: every alias tier's dependence graph is a superset
//     of the dynamically observed loop-carried dependences (the paper's
//     Figure 2 ground truth is measured against these graphs);
//  5. content keys: compiles at one core count whose
//     hcc.Compiled.Fingerprint is equal record byte-identical traces, and
//     a compile that selects no loop records the uncompiled program's
//     trace (the harness names traces by these keys);
//  6. immutable, shared input: a compile leaves its input's
//     fingerprint, function and global counts and NextUID unchanged,
//     and a second compile, through the one hcc.Input that every level
//     and core count reuses, decides what the fresh compile decided:
//     the same Fingerprint, coverage, loop estimates and rejections
//     (the harness shares one prepared build of each workload among
//     all its compiles).
//
// Failures carry the offending program in its textual form; shrink.go
// reduces them to minimal reproducers for the testdata corpus.
package difftest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"

	"helixrc/internal/alias"
	"helixrc/internal/cfg"
	"helixrc/internal/cpu"
	"helixrc/internal/ddg"
	"helixrc/internal/hcc"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
	"helixrc/internal/irgen"
	"helixrc/internal/sim"
)

// Builder produces the program under test with its entry function and
// arguments. Check calls it once and numbers the program
// (ir.Program.AssignUIDs) if the builder did not: every compile of the
// oracle matrix reads that one build, and Oracle 6 checks that none of
// them writes it.
type Builder func() (*ir.Program, *ir.Function, []int64, error)

// FromSeed builds the program by running the generator.
func FromSeed(seed uint64) Builder {
	return func() (*ir.Program, *ir.Function, []int64, error) {
		p, f, args := irgen.Generate(seed)
		p.AssignUIDs()
		return p, f, args, nil
	}
}

// FromText builds the program by parsing a textual program.
func FromText(text string, args []int64) Builder {
	return func() (*ir.Program, *ir.Function, []int64, error) {
		p, f, err := ir.ParseText(text, irgen.Externs)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := p.Verify(); err != nil {
			return nil, nil, nil, err
		}
		p.AssignUIDs()
		return p, f, args, nil
	}
}

// Options selects the oracle matrix.
type Options struct {
	Levels []hcc.Level // default: V1, V2, V3
	Cores  []int       // default: 1, 2, 4, 16
	Budget int64       // interpreter/simulator step budget; default 2M

	// SkipCross disables the extra architecture sweep (conventional,
	// abstract, out-of-order) per compile; the fuzz entry point uses it
	// to keep single executions fast.
	SkipCross bool
	// SkipBudget disables the budget-exhaustion partial-result probes.
	SkipBudget bool
	// SkipAlias disables the alias-soundness oracle.
	SkipAlias bool
}

func (o *Options) fill() {
	if len(o.Levels) == 0 {
		o.Levels = []hcc.Level{hcc.V1, hcc.V2, hcc.V3}
	}
	if len(o.Cores) == 0 {
		o.Cores = []int{1, 2, 4, 16}
	}
	if o.Budget <= 0 {
		o.Budget = 2_000_000
	}
}

// Failure describes one oracle violation, with enough context to
// reproduce it: the stage that diverged, a human-readable detail, and
// the program text + arguments.
type Failure struct {
	Stage   string // "build", "interp", "compile", "input", "functional", "fast-slow", "replay", "fingerprint", "budget", "alias"
	Detail  string
	Program string
	Args    []int64
}

func (f *Failure) Error() string {
	return fmt.Sprintf("difftest %s: %s", f.Stage, f.Detail)
}

// Check runs the full oracle matrix over one program. It returns nil if
// every invariant holds, a *Failure otherwise. Programs that exhaust the
// reference interpreter budget are treated as uninteresting inputs and
// pass vacuously.
//
// A cancelled ctx aborts the matrix early and returns nil: an
// interrupted check yields no verdict, never a fabricated Failure
// (simulator runs cut short by cancellation would otherwise read as
// oracle violations).
func Check(ctx context.Context, build Builder, opt Options) *Failure {
	if ctx == nil {
		ctx = context.Background()
	}
	f := check(ctx, build, opt)
	if ctx.Err() != nil {
		return nil
	}
	return f
}

// subject is the one build of the program under test that every oracle
// reads, with its inputState before any compile and the hcc.Input its
// second compiles share (Oracle 6).
type subject struct {
	p      *ir.Program
	f      *ir.Function
	args   []int64
	before string
	in     *hcc.Input
}

// inputState renders what a compile must leave unchanged in its input.
func inputState(p *ir.Program, f *ir.Function) string {
	return fmt.Sprintf("%d funcs, %d globals, NextUID %d, fingerprint %s",
		len(p.Funcs), len(p.Globals), p.NextUID, p.Fingerprint(f))
}

func check(ctx context.Context, build Builder, opt Options) *Failure {
	opt.fill()
	p, f, args, err := build()
	if err != nil {
		return &Failure{Stage: "build", Detail: err.Error()}
	}
	p.AssignUIDs()
	s := &subject{p: p, f: f, args: args, before: inputState(p, f)}
	fail := func(stage, format string, a ...any) *Failure {
		return &Failure{Stage: stage, Detail: fmt.Sprintf(format, a...), Program: p.Text(f), Args: args}
	}

	// Oracle 1 reference: the sequential interpreter.
	ref, err := interp.Run(p, f, opt.Budget, args...)
	if errors.Is(err, interp.ErrBudget) {
		return nil // over-budget program: not a valid test input
	}
	if err != nil {
		return fail("interp", "reference interpreter failed: %v", err)
	}

	// Oracle 4: every alias tier reports a superset of the dynamically
	// observed cross-iteration dependences.
	if !opt.SkipAlias {
		if f := checkAlias(s, opt, fail); f != nil {
			return f
		}
	}

	// Oracles 1-3, 5 and 6 across the compile matrix.
	if s.in, err = hcc.Prepare(p); err != nil {
		return fail("compile", "%v", err)
	}
	traces := map[string][]byte{} // Oracle 5: first trace per (cores, fingerprint)
	for _, level := range opt.Levels {
		for _, cores := range opt.Cores {
			if ctx.Err() != nil {
				return nil
			}
			if f := checkConfig(ctx, s, opt, level, cores, ref.RetValue, traces, fail); f != nil {
				return f
			}
		}
	}
	return nil
}

// checkAlias profiles the program and compares each tier's dependence
// graph against the observed dependences, per profiled loop.
func checkAlias(s *subject, opt Options, fail func(string, string, ...any) *Failure) *Failure {
	p := s.p
	graphs := map[*ir.Function]*cfg.Graph{}
	forests := map[*ir.Function]*cfg.Forest{}
	for _, fn := range p.Funcs {
		g := cfg.New(fn)
		graphs[fn] = g
		forests[fn] = cfg.FindLoops(g)
	}
	prof, err := (&interp.Profiler{Prog: p, Forests: forests, Budget: opt.Budget}).Run(s.f, s.args...)
	if err != nil {
		return fail("interp", "profiler failed: %v", err)
	}
	sol := alias.Solve(p)
	for _, tier := range alias.Tiers {
		an := sol.At(tier)
		for fi, fn := range p.Funcs {
			for _, loop := range forests[fn].Loops {
				lp := prof.Loops[interp.LoopKey{Fn: int32(fi), Header: int32(loop.Header.Index)}]
				if lp == nil {
					continue
				}
				dg := ddg.Build(p, fn, graphs[fn], loop, an)
				if missed := ddg.Unsound(dg, lp); len(missed) > 0 {
					return fail("alias", "tier %v missed %d observed dependences in %s loop@%s (first: %v)",
						tier, len(missed), fn.Name, loop.Header.Name, missed[0])
				}
			}
		}
	}
	return nil
}

// checkConfig compiles the program at (level, cores), checks that the
// compile left its input unchanged and that a second compile through
// the shared Input decides the same (Oracle 6), and drives the
// functional, fast/slow and record/replay oracles, including the
// cross-architecture sweep and budget probes, and the content-key
// oracle against the traces other levels recorded — all on that one
// compile.
func checkConfig(ctx context.Context, s *subject, opt Options, level hcc.Level, cores int,
	want int64, traces map[string][]byte, fail func(string, string, ...any) *Failure) *Failure {

	p, f, args := s.p, s.f, s.args
	tag := fmt.Sprintf("L%d/%dc", level, cores)
	opts := hcc.Options{
		Level: level, Cores: cores, TrainArgs: args,
		ProfileBudget: opt.Budget,
		// Select aggressively: the differential harness wants loops
		// parallelized even when the model sees no benefit.
		MinSpeedup: 1.0,
	}
	compile := func(run func() (*hcc.Compiled, error)) (*hcc.Compiled, *Failure) {
		comp, err := run()
		if err != nil {
			if errors.Is(err, interp.ErrBudget) {
				return nil, nil // profiling over budget: skip config
			}
			return nil, fail("compile", "%s: %v", tag, err)
		}
		// Oracle 6: the compile only read its input.
		if got := inputState(p, f); got != s.before {
			return nil, fail("input", "%s: compiling changed the input program to %s; was %s (%d loops)",
				tag, got, s.before, len(comp.Loops))
		}
		return comp, nil
	}

	comp, ff := compile(func() (*hcc.Compiled, error) { return hcc.Compile(p, f, opts) })
	if ff != nil || comp == nil {
		return ff
	}
	again, ff := compile(func() (*hcc.Compiled, error) {
		prof, err := s.in.Train(f, opts)
		if err != nil {
			return nil, err
		}
		return s.in.CompileWith(f, opts, prof)
	})
	if ff != nil || again == nil {
		return ff
	}
	if got, want := decisions(again), decisions(comp); got != want {
		return fail("input", "%s: a compile through the shared input decided\n%s\na fresh compile\n%s", tag, got, want)
	}
	compFP := comp.Fingerprint()

	helix := sim.HelixRC(cores)
	helix.MaxSteps = opt.Budget

	fast, err := sim.Run(ctx, p, comp, f, helix, args...)
	if err != nil {
		return fail("functional", "%s: parallel run failed: %v", tag, err)
	}
	if fast.RetValue != want {
		return fail("functional", "%s: parallel RetValue %d != sequential %d (%d loops)",
			tag, fast.RetValue, want, len(comp.Loops))
	}

	// Oracle 2: reference stepper.
	if f := runBothWays(ctx, s, comp, helix, fast, tag, fail); f != nil {
		return f
	}

	// Oracle 3: record once, replay under the recording config.
	rec, tr, err := sim.Record(ctx, p, comp, f, helix, args...)
	if err != nil {
		return fail("replay", "%s: record failed: %v", tag, err)
	}
	if *rec != *fast {
		return fail("replay", "%s: recording run diverges from plain run:\n%s", tag, diffResult(rec, fast))
	}
	if rp, err := sim.Replay(ctx, tr, helix); err != nil {
		return fail("replay", "%s: replay failed: %v", tag, err)
	} else if *rp != *fast {
		return fail("replay", "%s: replay diverges from execution:\n%s", tag, diffResult(rp, fast))
	}

	// Oracle 5: a loop-free compile's trace is the uncompiled program's;
	// otherwise equal fingerprints at one core count share a trace.
	// (EncodeTrace's error exists for the codec interface; it is nil.)
	key := fmt.Sprintf("c%d/%s", cores, compFP)
	if compFP == "" && traces[key] == nil {
		_, seq, err := sim.Record(ctx, p, nil, f, helix, args...)
		if err != nil {
			return fail("fingerprint", "%s: recording the uncompiled program failed: %v", tag, err)
		}
		traces[key], _ = sim.EncodeTrace(seq)
	}
	if data, _ := sim.EncodeTrace(tr); traces[key] == nil {
		traces[key] = data
	} else if !bytes.Equal(data, traces[key]) {
		return fail("fingerprint", "%s: trace differs from an earlier level's with fingerprint %q", tag, compFP)
	}

	// Cross-architecture sweep: the same trace retimed under other
	// configs must match fresh execution-driven runs (fast and slow).
	if !opt.SkipCross {
		for _, cross := range crossConfigs(cores, opt.Budget) {
			if ctx.Err() != nil {
				return nil
			}
			fastX, errX := sim.Run(ctx, p, comp, f, cross.cfg, args...)
			if errX != nil {
				return fail("functional", "%s/%s: run failed: %v", tag, cross.name, errX)
			}
			if fastX.RetValue != want {
				return fail("functional", "%s/%s: RetValue %d != %d", tag, cross.name, fastX.RetValue, want)
			}
			if f := runBothWays(ctx, s, comp, cross.cfg, fastX, tag+"/"+cross.name, fail); f != nil {
				return f
			}
			rpX, err := sim.Replay(ctx, tr, cross.cfg)
			if err != nil {
				return fail("replay", "%s/%s: replay failed: %v", tag, cross.name, err)
			}
			if *rpX != *fastX {
				return fail("replay", "%s/%s: replay diverges from execution:\n%s",
					tag, cross.name, diffResult(rpX, fastX))
			}
		}
	}

	// Budget probes: all three paths must fail at the same instruction
	// with identical partial results.
	if !opt.SkipBudget && fast.Instrs > 16 {
		for _, frac := range []int64{3, 2} {
			if ctx.Err() != nil {
				return nil
			}
			limited := helix
			limited.MaxSteps = fast.Instrs / frac
			partialFast, errFast := sim.Run(ctx, p, comp, f, limited, args...)
			partialSlow, errSlow := sim.Reference(ctx, p, comp, f, limited, args...)
			partialReplay, errReplay := sim.Replay(ctx, tr, limited)
			if !errors.Is(errFast, sim.ErrBudget) || !errors.Is(errSlow, sim.ErrBudget) || !errors.Is(errReplay, sim.ErrBudget) {
				return fail("budget", "%s: MaxSteps=%d want ErrBudget from all paths, got fast=%v slow=%v replay=%v",
					tag, limited.MaxSteps, errFast, errSlow, errReplay)
			}
			if *partialFast != *partialSlow {
				return fail("budget", "%s: MaxSteps=%d fast/slow partial results diverge:\n%s",
					tag, limited.MaxSteps, diffResult(partialFast, partialSlow))
			}
			if *partialReplay != *partialFast {
				return fail("budget", "%s: MaxSteps=%d replay/fast partial results diverge:\n%s",
					tag, limited.MaxSteps, diffResult(partialReplay, partialFast))
			}
		}
	}
	return nil
}

// decisions renders what a compile decided: its Fingerprint and
// coverage, each selected loop's estimated speedup and each rejected
// loop's reason.
func decisions(c *hcc.Compiled) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fingerprint %q coverage %v\n", c.Fingerprint(), c.Coverage)
	for _, pl := range c.Loops {
		fmt.Fprintf(&sb, "loop %s@%d est %v\n", pl.Fn.Name, pl.Header.Index, pl.EstSpeedup)
	}
	for _, r := range c.Rejected {
		fmt.Fprintf(&sb, "rejected %s@%d %q\n", r.Fn.Name, r.Loop.Header.Index, r.Reason)
	}
	return sb.String()
}

// runBothWays re-runs a configuration through the reference stepper and
// compares against the fast-path result bit for bit.
func runBothWays(ctx context.Context, s *subject, comp *hcc.Compiled, cfg sim.Config, fast *sim.Result, tag string,
	fail func(string, string, ...any) *Failure) *Failure {

	slow, err := sim.Reference(ctx, s.p, comp, s.f, cfg, s.args...)
	if err != nil {
		return fail("fast-slow", "%s: reference stepper failed: %v", tag, err)
	}
	if *slow != *fast {
		return fail("fast-slow", "%s: fast and reference stepper diverge:\n%s", tag, diffResult(fast, slow))
	}
	return nil
}

type namedConfig struct {
	name string
	cfg  sim.Config
}

// crossConfigs returns the architecture sweep exercised per compile: no
// ring cache, the abstract TLP machine, and an out-of-order core.
func crossConfigs(cores int, budget int64) []namedConfig {
	conv := sim.Conventional(cores)
	abs := sim.Abstract(cores)
	ooo := sim.HelixRC(cores)
	ooo.Core = cpu.OoO4()
	out := []namedConfig{{"conv", conv}, {"abstract", abs}, {"ooo4", ooo}}
	for i := range out {
		out[i].cfg.MaxSteps = budget
	}
	return out
}

// diffResult renders the differing fields of two Results.
func diffResult(a, b *sim.Result) string {
	if *a == *b {
		return "(equal)"
	}
	return fmt.Sprintf("  a: %+v\n  b: %+v", *a, *b)
}
