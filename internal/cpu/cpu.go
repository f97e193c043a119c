// Package cpu provides the core timing models of the evaluation platform:
// a 2-way in-order core validated against Intel Atom in the paper
// (XIOSim), and 2-way/4-way out-of-order cores (Zesto's Nehalem-like
// models). The models are scoreboard-based: instructions issue subject to
// issue width, operand readiness and (for in-order cores) program order;
// results become ready after an opcode-dependent latency; loads take
// whatever the memory system reports.
package cpu

import "helixrc/internal/ir"

// Config selects a core model.
type Config struct {
	Name string
	// Width is the issue width (instructions per cycle).
	Width int
	// OoO permits issue as soon as operands are ready, within Window.
	OoO bool
	// Window is the reorder-window size for OoO cores.
	Window int
	// BranchCost is charged on every taken branch (front-end redirect).
	BranchCost int
}

// InOrder2 is the default Atom-like core.
func InOrder2() Config { return Config{Name: "2-way IO", Width: 2, BranchCost: 2} }

// OoO2 is a 2-way out-of-order core.
func OoO2() Config { return Config{Name: "2-way OoO", Width: 2, OoO: true, Window: 32, BranchCost: 2} }

// OoO4 is a 4-way Nehalem-like out-of-order core.
func OoO4() Config { return Config{Name: "4-way OoO", Width: 4, OoO: true, Window: 96, BranchCost: 2} }

// Latency returns the execution latency of a non-memory opcode.
func Latency(op ir.Op) int64 {
	switch op {
	case ir.OpMul:
		return 3
	case ir.OpDiv, ir.OpRem:
		return 20
	case ir.OpFAdd, ir.OpFSub:
		return 3
	case ir.OpFMul:
		return 4
	case ir.OpFDiv:
		return 24
	default:
		return 1
	}
}

// Core tracks one core's pipeline state. Reset it at thread switches.
type Core struct {
	Cfg Config
	// regReady[r] is when register r's latest value becomes available.
	regReady []int64
	// slotTime/slotUsed implement the issue-width limit.
	slotTime int64
	slotUsed int
	// inOrderHead is the last issue time (in-order issue constraint).
	inOrderHead int64
	// window holds the last Window issue times for OoO window pressure.
	window []int64
	wpos   int
}

// NewCore builds a core with room for nregs registers.
func NewCore(cfg Config, nregs int) *Core {
	if cfg.Width < 1 {
		cfg.Width = 1
	}
	c := &Core{Cfg: cfg, regReady: make([]int64, nregs)}
	if cfg.OoO && cfg.Window > 0 {
		c.window = make([]int64, cfg.Window)
	}
	return c
}

// Reset clears pipeline state for a new thread/loop, keeping statistics.
func (c *Core) Reset(at int64) {
	for i := range c.regReady {
		c.regReady[i] = at
	}
	c.slotTime, c.slotUsed = at, 0
	c.inOrderHead = at
	for i := range c.window {
		c.window[i] = at
	}
}

// Grow ensures the register scoreboard covers nregs registers.
func (c *Core) Grow(nregs int) {
	for len(c.regReady) < nregs {
		c.regReady = append(c.regReady, 0)
	}
}

// issueSlot allocates an issue slot no earlier than t.
func (c *Core) issueSlot(t int64) int64 {
	if t > c.slotTime {
		c.slotTime = t
		c.slotUsed = 1
		return t
	}
	if c.slotUsed < c.Cfg.Width {
		c.slotUsed++
		return c.slotTime
	}
	c.slotTime++
	c.slotUsed = 1
	return c.slotTime
}

// Issue models one instruction: `now` is the earliest fetch time, opReady
// the time all register operands are available, and extraLat any latency
// beyond 1 cycle (memory ops pass their memory latency; others pass
// Latency(op)-1). It returns (issueTime, resultReady).
func (c *Core) Issue(in *ir.Instr, now, opReady, resultLat int64) (int64, int64) {
	return c.IssueReg(in.Def(), now, opReady, resultLat)
}

// IssueReg is Issue with the destination register pre-resolved (ir.NoReg
// for instructions without one). The simulator's pre-decoded fast path
// uses it to skip re-deriving the destination on every dynamic
// instruction; timing is identical to Issue.
func (c *Core) IssueReg(dst ir.Reg, now, opReady, resultLat int64) (int64, int64) {
	if !c.Cfg.OoO {
		t := c.IssueInOrder(dst, now, opReady, resultLat)
		return t, t + resultLat
	}
	t := max(now, opReady)
	// Window pressure: cannot issue more than Window instructions ahead
	// of the oldest in flight.
	if c.window != nil {
		if w := c.window[c.wpos]; w > t {
			t = w
		}
	}
	t = c.issueSlot(t)
	done := t + resultLat
	if dst != ir.NoReg {
		c.regReady[dst] = done
	}
	if c.window != nil {
		c.window[c.wpos] = done
		c.wpos = (c.wpos + 1) % len(c.window)
	}
	return t, done
}

// IssueInOrder is IssueReg on an in-order core, returning only the
// issue time: no instruction issues before the one ahead of it in
// program order (stall-on-use is approximated by the register
// scoreboard; stores and branches retire in order). It is the one copy
// of the in-order rule, and small enough to inline into a caller that
// has checked the core model, as the simulator's replay lanes do.
func (c *Core) IssueInOrder(dst ir.Reg, now, opReady, resultLat int64) int64 {
	t := c.issueSlot(max(now, opReady, c.inOrderHead))
	if dst != ir.NoReg {
		c.regReady[dst] = t + resultLat
	}
	c.inOrderHead = t
	return t
}

// OpReady returns when the instruction's register operands are available.
func (c *Core) OpReady(in *ir.Instr) int64 {
	var scratch [8]ir.Reg
	var t int64
	for _, r := range in.Uses(scratch[:0]) {
		if c.regReady[r] > t {
			t = c.regReady[r]
		}
	}
	return t
}

// RegReady exposes a register's readiness (for sync instructions).
func (c *Core) RegReady(r ir.Reg) int64 { return c.regReady[r] }

// SetRegReady overrides a register's readiness — used when a memory
// system computes a completion time after the instruction has issued.
func (c *Core) SetRegReady(r ir.Reg, t int64) {
	if r != ir.NoReg {
		c.regReady[r] = t
	}
}

// SetAllReady forces every register ready at t (after a context copy).
func (c *Core) SetAllReady(t int64) {
	for i := range c.regReady {
		c.regReady[i] = t
	}
}

// Barrier prevents any later instruction from issuing before t (used for
// wait instructions, which are non-speculative and fence memory).
func (c *Core) Barrier(t int64) {
	if c.Cfg.OoO {
		for i := range c.window {
			if c.window[i] < t {
				c.window[i] = t
			}
		}
	}
	if t > c.inOrderHead {
		c.inOrderHead = t
	}
	if t > c.slotTime {
		c.slotTime = t
		c.slotUsed = 0
	}
}
