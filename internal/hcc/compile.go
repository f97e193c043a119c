package hcc

import (
	"fmt"
	"maps"
	"sort"
	"sync"

	"helixrc/internal/alias"
	"helixrc/internal/cfg"
	"helixrc/internal/ddg"
	"helixrc/internal/induction"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
)

// Compile runs the full HCC pipeline on prog: profile the training run,
// analyze every loop, select the profitable ones and generate parallel
// bodies. entry is the function executed by the training run (and later by
// the simulator). It is Prepare, then Train and CompileWith on the
// prepared Input; to compile one program more than once, prepare it once
// and call the Input's methods, which share its analyses.
//
// Compile only reads prog: the bodies, slots and types it generates go
// into Compiled.Prog, a new program that extends prog (ir.Program.Extend),
// so concurrent compiles may share one input. The one write it may make
// is numbering an input that was never numbered (ir.Program.AssignUIDs);
// workloads.Get and the difftest builders return numbered programs.
func Compile(prog *ir.Program, entry *ir.Function, opts Options) (*Compiled, error) {
	in, err := Prepare(prog)
	if err != nil {
		return nil, err
	}
	profile, err := in.Train(entry, opts)
	if err != nil {
		return nil, err
	}
	return in.CompileWith(entry, opts, profile)
}

// Train runs the training profile loop selection reads: an instrumented
// sequential run of entry over opts.TrainArgs on a ring of opts.Cores
// cores, bounded by opts.ProfileBudget. The profile depends on nothing
// else in opts — not the level, not the alias tier — and names loops and
// blocks by position, so one profile serves every CompileWith of the
// same program content. Like Compile, Train only reads a numbered prog.
// It is Prepare followed by Input.Train.
func Train(prog *ir.Program, entry *ir.Function, opts Options) (*interp.Profile, error) {
	in, err := Prepare(prog)
	if err != nil {
		return nil, err
	}
	return in.Train(entry, opts)
}

// CompileWith is Compile with the training profile supplied: prof must
// come from Train on a program of the same content with the same cores,
// training args and profile budget, or CompileWith returns an error.
// prof and a numbered prog are only read, so concurrent compilations may
// share both. It is Prepare followed by Input.CompileWith.
func CompileWith(prog *ir.Program, entry *ir.Function, opts Options, prof *interp.Profile) (*Compiled, error) {
	in, err := Prepare(prog)
	if err != nil {
		return nil, err
	}
	return in.CompileWith(entry, opts, prof)
}

// Input is a program prepared for compiling: numbered and verified once,
// with the facts HCC derives from the code alone, which every Train and
// CompileWith of it share. Those are each function's control-flow graph,
// loop forest and liveness, the program's alias solution, and each
// loop's induction classes and dependence graph per alias tier; only
// loop selection and code generation depend on the level, the core
// count and the training profile. Prepare computes the graphs and
// forests, everything else is computed at most once, on first use. An
// Input is safe for concurrent use, it never writes its program, and
// each fact is only read once its fill completes.
type Input struct {
	prog    *ir.Program
	graphs  map[*ir.Function]*cfg.Graph
	forests map[*ir.Function]*cfg.Forest
	live    map[*ir.Function]func() *cfg.Liveness
	alias   func() *alias.Solution
	loops   map[*cfg.Loop]*loopFacts
}

// loopFacts holds one loop's analyses: the part of its dependence graph
// no alias tier changes (ddg.ForLoop) with the induction classes, which
// read only its register dependences, and its dependence graph per
// alias tier.
type loopFacts struct {
	once    sync.Once
	base    *ddg.Graph
	classes map[ir.Reg]induction.Info
	tiers   [alias.TierLib + 1]struct {
		once sync.Once
		dg   *ddg.Graph
	}
}

// Prepare numbers the program's instructions if they are not numbered
// yet, verifies it (which checks that every function's blocks are
// numbered positionally) and computes its control-flow structure.
func Prepare(prog *ir.Program) (*Input, error) {
	prog.AssignUIDs()
	if err := prog.Verify(); err != nil {
		return nil, fmt.Errorf("hcc: input program: %w", err)
	}
	in := &Input{
		prog:    prog,
		graphs:  make(map[*ir.Function]*cfg.Graph, len(prog.Funcs)),
		forests: make(map[*ir.Function]*cfg.Forest, len(prog.Funcs)),
		live:    make(map[*ir.Function]func() *cfg.Liveness, len(prog.Funcs)),
		alias:   sync.OnceValue(func() *alias.Solution { return alias.Solve(prog) }),
		loops:   map[*cfg.Loop]*loopFacts{},
	}
	for _, f := range prog.Funcs {
		g := cfg.New(f)
		forest := cfg.FindLoops(g)
		in.graphs[f], in.forests[f] = g, forest
		in.live[f] = sync.OnceValue(func() *cfg.Liveness { return cfg.ComputeLiveness(g) })
		for _, l := range forest.Loops {
			in.loops[l] = &loopFacts{}
		}
	}
	return in, nil
}

// loopAt returns the loop of fn headed by its block at position header.
func (in *Input) loopAt(fn *ir.Function, header int32) *cfg.Loop {
	for _, l := range in.forests[fn].Loops {
		if l.Header.Index == int(header) {
			return l
		}
	}
	return nil
}

// analyze returns loop's dependence graph under tier and its induction
// classes, computing each on first use. Both are shared: callers only
// read them.
func (in *Input) analyze(fn *ir.Function, loop *cfg.Loop, tier alias.Tier) (*ddg.Graph, map[ir.Reg]induction.Info) {
	lf := in.loops[loop]
	g := in.graphs[fn]
	lf.once.Do(func() {
		lf.base = ddg.ForLoop(fn, g, in.live[fn](), loop)
		lf.classes = induction.Classify(fn, g, loop, lf.base.CarriedRegs)
	})
	t := &lf.tiers[tier]
	t.once.Do(func() { t.dg = lf.base.WithAlias(g, in.alias().At(tier)) })
	return t.dg, lf.classes
}

// Train runs the training profile of entry on the prepared program, as
// the package-level Train does, over the Input's loop forests.
func (in *Input) Train(entry *ir.Function, opts Options) (*interp.Profile, error) {
	opts.fillDefaults()
	profiler := &interp.Profiler{
		Prog:     in.prog,
		Forests:  in.forests,
		RingSize: opts.Cores,
		Budget:   opts.ProfileBudget,
	}
	profile, err := profiler.Run(entry, opts.TrainArgs...)
	if err != nil {
		return nil, fmt.Errorf("hcc: profiling: %w", err)
	}
	return profile, nil
}

// CompileWith compiles the prepared program under opts from the
// training profile prof, as the package-level CompileWith does, reading
// the Input's analyses instead of deriving them again.
func (in *Input) CompileWith(entry *ir.Function, opts Options, profile *interp.Profile) (*Compiled, error) {
	opts.fillDefaults()
	prog := in.prog
	if err := profile.Matches(prog, entry, opts.Cores, opts.ProfileBudget, opts.TrainArgs); err != nil {
		return nil, fmt.Errorf("hcc: %w", err)
	}
	tier, err := opts.aliasTier()
	if err != nil {
		return nil, err
	}

	out := &Compiled{Prog: prog.Extend(), Level: opts.Level, Options: opts, Profile: profile}

	var cands []candidate

	for _, lp := range profile.LoopsBy() {
		fn := prog.Funcs[lp.Key.Fn]
		loop := in.loopAt(fn, lp.Key.Header)
		if loop == nil {
			return nil, fmt.Errorf("hcc: profile names a loop at block %d of %s, which heads none", lp.Key.Header, fn.Name)
		}
		g := in.graphs[fn]
		reject := func(reason string, est float64) {
			out.Rejected = append(out.Rejected, RejectedLoop{Loop: loop, Fn: fn, Reason: reason, Estimate: est})
		}
		if lp.Iterations < 2 || lp.AvgIterLen() <= 0 {
			reject("no dynamic iterations", 0)
			continue
		}
		if len(loop.Latches) != 1 {
			reject("multiple latches", 0)
			continue
		}
		bad := false
		for _, b := range loop.Blocks {
			if t := b.Terminator(); t == nil || t.Op == ir.OpRet {
				bad = true
			}
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpAlloc {
					bad = true
				}
			}
		}
		if bad {
			reject("return or allocation inside loop", 0)
			continue
		}

		dg, classes := in.analyze(fn, loop, tier)
		if !opts.Level.FullPredictability() {
			// HCCv1 only understands linear inductions: demote the rest,
			// in a copy, because the Input shares classes.
			classes = maps.Clone(classes)
			for r, info := range classes {
				switch info.Class {
				case induction.ClassPoly2, induction.ClassAccum, induction.ClassLastValue:
					info.Class = induction.ClassShared
					classes[r] = info
				}
			}
		}
		seg := buildSegments(opts.Level, dg, classes)
		if seg.sharedInCallee {
			reject("shared data accessed inside callee", 0)
			continue
		}
		if seg.clobberCall {
			reject("opaque library call with memory effects", 0)
			continue
		}
		freq := func(b *ir.Block) float64 {
			if lp.Iterations == 0 {
				return 1
			}
			f := float64(profile.BlockCount[lp.Key.Fn][b.Index]) / float64(lp.Iterations)
			if f > 0 && f < 0.01 {
				f = 0.01
			}
			return f
		}
		spans, accCounts := estimateSpans(opts.Level, g, loop, seg, freq)
		counted := isCounted(g, loop, classes)
		// Inserted per-iteration code: prologue recomputation, control
		// check, slot moves and wait/signal instructions.
		overhead := 2.0
		if !counted {
			overhead += 4
		}
		for _, info := range classes {
			switch info.Class {
			case induction.ClassInduction:
				overhead += 2
			case induction.ClassPoly2:
				overhead += 7
			case induction.ClassShared:
				overhead += 4 // slot load/store plus wait/signal
			}
		}
		est := estimate(lp, spans, accCounts, counted, overhead, &opts)
		if est < opts.MinSpeedup {
			reject("insufficient estimated speedup", est)
			continue
		}
		cov := lp.Coverage(profile.TotalInstrs)
		cands = append(cands, candidate{
			fn: fn, loop: loop, lp: lp, seg: seg, classes: classes,
			est: est, benefit: cov * (1 - 1/est),
		})
	}

	sort.Slice(cands, func(i, j int) bool {
		if cands[i].benefit != cands[j].benefit {
			return cands[i].benefit > cands[j].benefit
		}
		if cands[i].loop.ID != cands[j].loop.ID {
			return cands[i].loop.ID < cands[j].loop.ID
		}
		return cands[i].lp.Key.Fn < cands[j].lp.Key.Fn
	})

	var picked []candidate
	for _, c := range cands {
		if opts.MaxLoops > 0 && len(picked) >= opts.MaxLoops {
			break
		}
		conflict := false
		for _, p := range picked {
			if profile.Conflict(c.lp.Key, p.lp.Key) || staticallyNested(c, p) {
				conflict = true
				break
			}
		}
		if conflict {
			out.Rejected = append(out.Rejected, RejectedLoop{
				Loop: c.loop, Fn: c.fn, Reason: "nested within a selected loop", Estimate: c.est,
			})
			continue
		}
		picked = append(picked, c)
	}

	for i, c := range picked {
		pl, err := generate(out.Prog, c.fn, in.graphs[c.fn], in.live[c.fn](), c.loop, opts.Level, c.seg, c.classes, i)
		if err != nil {
			out.Rejected = append(out.Rejected, RejectedLoop{Loop: c.loop, Fn: c.fn, Reason: err.Error(), Estimate: c.est})
			continue
		}
		pl.Profile = c.lp
		pl.AvgIterLen = c.lp.AvgIterLen()
		pl.AvgTripCount = c.lp.AvgTripCount()
		pl.Coverage = c.lp.Coverage(profile.TotalInstrs)
		pl.EstSpeedup = c.est
		out.Loops = append(out.Loops, pl)
		out.Coverage += pl.Coverage
	}
	return out, nil
}

// candidate is a loop that passed the legality and profitability checks.
type candidate struct {
	fn      *ir.Function
	loop    *cfg.Loop
	lp      *interp.LoopProfile
	seg     *segmentation
	classes map[ir.Reg]induction.Info
	est     float64
	benefit float64
}

func staticallyNested(a, b candidate) bool {
	if a.fn != b.fn {
		return false
	}
	return a.loop.Contains(b.loop.Header) || b.loop.Contains(a.loop.Header)
}
