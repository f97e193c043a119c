package hcc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"helixrc/internal/cfg"
	"helixrc/internal/induction"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
)

// RecomputeKind selects the per-iteration recomputation rule for a
// predictable register.
type RecomputeKind int

// Recomputation kinds.
const (
	// RecLinear: r(i) = init + step*i (step constant or invariant reg).
	RecLinear RecomputeKind = iota
	// RecPoly2: r(i) = init + innerInit*i + step2*i*(i-1)/2.
	RecPoly2
)

// RecomputeRule tells the simulator (and the generated prologue) how a
// core derives a predictable register's value from the iteration index.
type RecomputeRule struct {
	Kind RecomputeKind
	// Shadow is the body-function register the simulator must initialize
	// with the register's loop-entry value.
	Shadow ir.Reg
	// Step is the linear coefficient (constant or invariant register).
	Step   ir.Value
	Negate bool
	// InnerShadow/Step2 serve the second-order rule.
	InnerShadow ir.Reg
	Step2       ir.Value
	Step2Negate bool
}

// SegmentInfo describes one sequential segment for statistics.
type SegmentInfo struct {
	ID int
	// MemberInstrs counts the shared accesses assigned to the segment.
	MemberInstrs int
	// SpanInstrs counts the instructions on wait→signal paths (static).
	SpanInstrs int
}

// ParallelLoop is the compiled form of one selected loop: a cloned body
// function plus the metadata the simulator needs to run iterations on a
// ring of cores.
type ParallelLoop struct {
	ID   int
	Fn   *ir.Function
	Loop *cfg.Loop
	// Header is the block in Fn whose entry triggers parallel execution.
	Header *ir.Block

	// Body is the cloned per-iteration function. Its single parameter is
	// the iteration index. It returns:
	//
	//	0    — iteration ran, loop continues
	//	1    — iteration did not run (a previous iteration ended the loop)
	//	2+k  — iteration ended the loop via exit edge k
	Body      *ir.Function
	IterParam ir.Reg

	// Counted marks loops whose exit condition each core can evaluate
	// independently (no control segment or ctl protocol needed).
	Counted bool
	// CtlAddr is the control word for non-counted loops (holds the first
	// non-running iteration; the simulator initializes it to MaxInt64).
	CtlAddr int64

	// NumSegs is the sequential segment count (segment 0 is the control
	// segment for non-counted loops).
	NumSegs  int
	Segments []SegmentInfo

	// SlotOf maps each shared (unpredictable) register to its
	// communication slot address.
	SlotOf map[ir.Reg]int64
	// SlotAddrs is the set of slot addresses (for register- vs memory-
	// communication accounting).
	SlotAddrs map[int64]bool

	// Recompute lists per-iteration recomputation rules (induction).
	Recompute map[ir.Reg]RecomputeRule
	// Reductions lists accumulator registers and their combine kinds.
	Reductions map[ir.Reg]induction.ReduceKind
	// LastValue maps registers restored by last-writer-wins to the UIDs
	// of their defining instructions in the Body clone.
	LastValue map[ir.Reg][]int32

	// ExitTargets maps exit code 2+k to the original successor block.
	ExitTargets []*ir.Block

	// LiveOutRegs lists registers (original numbering) that are live after
	// the loop and must be restored into the continuing context.
	LiveOutRegs []ir.Reg

	// Profile is the training profile of the loop (shared with every
	// compilation trained on the same input; read only).
	Profile *interp.LoopProfile
	// Profile-derived stats used by benches and the selector.
	AvgIterLen   float64
	AvgTripCount float64
	Coverage     float64
	EstSpeedup   float64
}

// Compiled is the result of compiling a program at some level.
type Compiled struct {
	// Prog is the program HCC emitted: an extension of the input
	// (ir.Program.Extend) holding its functions and globals plus every
	// loop body, slot and control global the compile added. The
	// simulator executes it.
	Prog    *ir.Program
	Level   Level
	Options Options
	Loops   []*ParallelLoop
	Profile *interp.Profile
	// Coverage is the summed dynamic coverage of all selected loops.
	Coverage float64
	// Rejected records loops considered but not selected, with reasons.
	Rejected []RejectedLoop
}

// RejectedLoop explains why a candidate loop was not parallelized.
type RejectedLoop struct {
	Loop     *cfg.Loop
	Fn       *ir.Function
	Reason   string
	Estimate float64
}

// Fingerprint names what HCC added to its input program. With the
// input's own fingerprint, the core count and the input arguments it
// determines every trace recorded from the compiled program, so the
// harness keys traces by it. It hashes each selected loop's body in
// canonical text, with every instruction's shared segment and clone
// flag, and every loop field the simulator reads; it never re-hashes
// the input program. It is "" when no loop was selected: such a
// compile runs its input program unchanged.
func (c *Compiled) Fingerprint() string {
	if len(c.Loops) == 0 {
		return ""
	}
	h := sha256.New()
	for _, pl := range c.Loops {
		exits := make([]int, len(pl.ExitTargets))
		for i, b := range pl.ExitTargets {
			exits[i] = b.Index
		}
		fmt.Fprintf(h, "loop fn=%s header=%d iter=%v counted=%t ctl=%d segs=%d exits=%v liveout=%v\n",
			pl.Fn.Name, pl.Header.Index, pl.IterParam, pl.Counted, pl.CtlAddr, pl.NumSegs, exits, pl.LiveOutRegs)
		// fmt prints maps in key order. Body UIDs (LastValue) follow the
		// input's and earlier bodies' instructions, so the text fixes them.
		fmt.Fprintf(h, "slots=%v recompute=%v reduce=%v lastvalue=%v\n",
			pl.SlotOf, pl.Recompute, pl.Reductions, pl.LastValue)
		pl.Body.WriteCompiledText(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}
