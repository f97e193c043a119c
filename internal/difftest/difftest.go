// Package difftest cross-checks every execution path in the repository
// against each other on randomly generated IR programs. For one program
// it asserts four oracle invariants:
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
//     Figure 2 ground truth is measured against these graphs).
//
// Failures carry the offending program in its textual form; shrink.go
// reduces them to minimal reproducers for the testdata corpus.
package difftest

import (
	"context"
	"errors"
	"fmt"

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

// Builder produces a fresh, identical program on every call. hcc.Compile
// mutates the program it is given (UID assignment, cloned loop bodies),
// so every compile in the oracle matrix starts from its own copy.
type Builder func() (*ir.Program, *ir.Function, []int64, error)

// FromSeed builds fresh copies by re-running the generator.
func FromSeed(seed uint64) Builder {
	return func() (*ir.Program, *ir.Function, []int64, error) {
		p, f, args := irgen.Generate(seed)
		return p, f, args, nil
	}
}

// FromText builds fresh copies by re-parsing a textual program.
func FromText(text string, args []int64) Builder {
	return func() (*ir.Program, *ir.Function, []int64, error) {
		p, f, err := ir.ParseText(text, irgen.Externs)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := p.Verify(); err != nil {
			return nil, nil, nil, err
		}
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
	Stage   string // "build", "interp", "compile", "functional", "fast-slow", "replay", "budget", "alias"
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

func check(ctx context.Context, build Builder, opt Options) *Failure {
	opt.fill()
	fail := func(stage, format string, a ...any) *Failure {
		p, f, args, err := build()
		text := ""
		if err == nil {
			text = p.Text(f)
		}
		return &Failure{Stage: stage, Detail: fmt.Sprintf(format, a...), Program: text, Args: args}
	}

	// Oracle 1 reference: the sequential interpreter.
	p, f, args, err := build()
	if err != nil {
		return &Failure{Stage: "build", Detail: err.Error()}
	}
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
		if f := checkAlias(build, opt, fail); f != nil {
			return f
		}
	}

	// Oracles 1-3 across the compile matrix.
	for _, level := range opt.Levels {
		for _, cores := range opt.Cores {
			if ctx.Err() != nil {
				return nil
			}
			if f := checkConfig(ctx, build, opt, level, cores, ref.RetValue, fail); f != nil {
				return f
			}
		}
	}
	return nil
}

// checkAlias profiles a fresh copy and compares each tier's dependence
// graph against the observed dependences, per profiled loop.
func checkAlias(build Builder, opt Options, fail func(string, string, ...any) *Failure) *Failure {
	p, f, args, err := build()
	if err != nil {
		return &Failure{Stage: "build", Detail: err.Error()}
	}
	p.AssignUIDs()
	graphs := map[*ir.Function]*cfg.Graph{}
	forests := map[*ir.Function]*cfg.Forest{}
	for _, fn := range p.Funcs {
		g := cfg.New(fn)
		graphs[fn] = g
		forests[fn] = cfg.FindLoops(g)
	}
	prof, err := (&interp.Profiler{Prog: p, Forests: forests, Budget: opt.Budget}).Run(f, args...)
	if err != nil {
		return fail("interp", "profiler failed: %v", err)
	}
	for _, tier := range alias.Tiers {
		an := alias.New(p, tier)
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

// checkConfig compiles a fresh copy at (level, cores) and drives the
// functional, fast/slow and record/replay oracles, including the
// cross-architecture sweep and budget probes.
func checkConfig(ctx context.Context, build Builder, opt Options, level hcc.Level, cores int,
	want int64, fail func(string, string, ...any) *Failure) *Failure {

	compile := func() (*ir.Program, *hcc.Compiled, *ir.Function, *Failure) {
		p, f, args, err := build()
		if err != nil {
			return nil, nil, nil, &Failure{Stage: "build", Detail: err.Error()}
		}
		comp, err := hcc.Compile(p, f, hcc.Options{
			Level: level, Cores: cores, TrainArgs: args,
			ProfileBudget: opt.Budget,
			// Select aggressively: the differential harness wants loops
			// parallelized even when the model sees no benefit.
			MinSpeedup: 1.0,
		})
		if err != nil {
			if errors.Is(err, interp.ErrBudget) {
				return nil, nil, nil, nil // profiling over budget: skip config
			}
			return nil, nil, nil, fail("compile", "L%d/%dc: %v", level, cores, err)
		}
		return p, comp, f, nil
	}

	p, comp, f, ff := compile()
	if ff != nil {
		return ff
	}
	if comp == nil {
		return nil
	}
	_, _, args, _ := build()
	helix := sim.HelixRC(cores)
	helix.MaxSteps = opt.Budget

	tag := fmt.Sprintf("L%d/%dc", level, cores)
	fast, err := sim.Run(ctx, p, comp, f, helix, args...)
	if err != nil {
		return fail("functional", "%s: parallel run failed: %v", tag, err)
	}
	if fast.RetValue != want {
		return fail("functional", "%s: parallel RetValue %d != sequential %d (%d loops)",
			tag, fast.RetValue, want, len(comp.Loops))
	}

	// Oracle 2: reference stepper, fresh program copy.
	if f := runBothWays(ctx, compile, helix, fast, tag, args, fail); f != nil {
		return f
	}

	// Oracle 3: record once, replay under the recording config.
	pr, comp2, fr, ff := compile()
	if ff != nil {
		return ff
	}
	rec, tr, err := sim.Record(ctx, pr, comp2, fr, helix, args...)
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

	// Cross-architecture sweep: the same trace retimed under other
	// configs must match fresh execution-driven runs (fast and slow).
	if !opt.SkipCross {
		for _, cross := range crossConfigs(cores, opt.Budget) {
			if ctx.Err() != nil {
				return nil
			}
			px, compx, fx, ff := compile()
			if ff != nil {
				return ff
			}
			fastX, errX := sim.Run(ctx, px, compx, fx, cross.cfg, args...)
			if errX != nil {
				return fail("functional", "%s/%s: run failed: %v", tag, cross.name, errX)
			}
			if fastX.RetValue != want {
				return fail("functional", "%s/%s: RetValue %d != %d", tag, cross.name, fastX.RetValue, want)
			}
			if f := runBothWays(ctx, compile, cross.cfg, fastX, tag+"/"+cross.name, args, fail); f != nil {
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
			pb, compb, fb, ff := compile()
			if ff != nil {
				return ff
			}
			partialFast, errFast := sim.Run(ctx, pb, compb, fb, limited, args...)
			ps, comps, fs, ff := compile()
			if ff != nil {
				return ff
			}
			partialSlow, errSlow := sim.Reference(ctx, ps, comps, fs, limited, args...)
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

// runBothWays re-runs a configuration through the reference stepper and
// compares against the fast-path result bit for bit.
func runBothWays(ctx context.Context, compile func() (*ir.Program, *hcc.Compiled, *ir.Function, *Failure),
	cfg sim.Config, fast *sim.Result, tag string, args []int64,
	fail func(string, string, ...any) *Failure) *Failure {

	ps, comps, fs, ff := compile()
	if ff != nil {
		return ff
	}
	slow, err := sim.Reference(ctx, ps, comps, fs, cfg, args...)
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
