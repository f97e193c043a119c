package hcc

import (
	"fmt"
	"sort"

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
// the simulator). It is Train followed by CompileWith.
func Compile(prog *ir.Program, entry *ir.Function, opts Options) (*Compiled, error) {
	opts.fillDefaults()
	fl, err := prepare(prog)
	if err != nil {
		return nil, err
	}
	profile, err := train(prog, entry, fl, opts)
	if err != nil {
		return nil, err
	}
	return compileWith(prog, entry, fl, opts, profile)
}

// Train runs the training profile loop selection reads: an instrumented
// sequential run of entry over opts.TrainArgs on a ring of opts.Cores
// cores, bounded by opts.ProfileBudget. The profile depends on nothing
// else in opts — not the level, not the alias tier — and names loops and
// blocks by position, so one profile serves every CompileWith of any
// fresh build of the same program.
func Train(prog *ir.Program, entry *ir.Function, opts Options) (*interp.Profile, error) {
	opts.fillDefaults()
	fl, err := prepare(prog)
	if err != nil {
		return nil, err
	}
	return train(prog, entry, fl, opts)
}

// CompileWith is Compile with the training profile supplied: prof must
// come from Train on a program of the same content with the same cores,
// training args and profile budget, or CompileWith returns an error. prof
// is only read, so concurrent compilations may share it.
func CompileWith(prog *ir.Program, entry *ir.Function, opts Options, prof *interp.Profile) (*Compiled, error) {
	opts.fillDefaults()
	fl, err := prepare(prog)
	if err != nil {
		return nil, err
	}
	return compileWith(prog, entry, fl, opts, prof)
}

// flow is the control-flow structure of a program: the graph and loop
// forest of every function.
type flow struct {
	graphs  map[*ir.Function]*cfg.Graph
	forests map[*ir.Function]*cfg.Forest
}

// prepare numbers the program's instructions, verifies it (which checks
// that every function's blocks are numbered positionally) and computes
// its control-flow structure.
func prepare(prog *ir.Program) (*flow, error) {
	prog.AssignUIDs()
	if err := prog.Verify(); err != nil {
		return nil, fmt.Errorf("hcc: input program: %w", err)
	}
	fl := &flow{graphs: map[*ir.Function]*cfg.Graph{}, forests: map[*ir.Function]*cfg.Forest{}}
	for _, f := range prog.Funcs {
		g := cfg.New(f)
		fl.graphs[f] = g
		fl.forests[f] = cfg.FindLoops(g)
	}
	return fl, nil
}

// loopAt returns the loop of fn headed by its block at position header.
func (fl *flow) loopAt(fn *ir.Function, header int32) *cfg.Loop {
	for _, l := range fl.forests[fn].Loops {
		if l.Header.Index == int(header) {
			return l
		}
	}
	return nil
}

func train(prog *ir.Program, entry *ir.Function, fl *flow, opts Options) (*interp.Profile, error) {
	profiler := &interp.Profiler{
		Prog:     prog,
		Forests:  fl.forests,
		RingSize: opts.Cores,
		Budget:   opts.ProfileBudget,
	}
	profile, err := profiler.Run(entry, opts.TrainArgs...)
	if err != nil {
		return nil, fmt.Errorf("hcc: profiling: %w", err)
	}
	return profile, nil
}

func compileWith(prog *ir.Program, entry *ir.Function, fl *flow, opts Options, profile *interp.Profile) (*Compiled, error) {
	if err := profile.Matches(prog, entry, opts.Cores, opts.ProfileBudget, opts.TrainArgs); err != nil {
		return nil, fmt.Errorf("hcc: %w", err)
	}
	tier, err := opts.aliasTier()
	if err != nil {
		return nil, err
	}
	an := alias.New(prog, tier)

	out := &Compiled{Prog: prog, Level: opts.Level, Options: opts, Profile: profile}

	var cands []candidate

	for _, lp := range profile.LoopsBy() {
		fn := prog.Funcs[lp.Key.Fn]
		loop := fl.loopAt(fn, lp.Key.Header)
		if loop == nil {
			return nil, fmt.Errorf("hcc: profile names a loop at block %d of %s, which heads none", lp.Key.Header, fn.Name)
		}
		g := fl.graphs[fn]
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

		dg := ddg.Build(prog, fn, g, loop, an)
		classes := induction.Classify(fn, g, loop, dg.CarriedRegs)
		if !opts.Level.FullPredictability() {
			// HCCv1 only understands linear inductions: demote the rest.
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
		pl, err := generate(prog, c.fn, fl.graphs[c.fn], c.loop, opts.Level, c.seg, c.classes, i)
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
