package cpu

import (
	"testing"

	"helixrc/internal/ir"
)

func addInstr(dst ir.Reg, a, b ir.Reg) *ir.Instr {
	in := ir.NewInstr(ir.OpAdd)
	in.Dst = dst
	in.A, in.B = ir.R(a), ir.R(b)
	return &in
}

func TestIssueWidthLimit(t *testing.T) {
	c := NewCore(Config{Width: 2}, 16)
	c.Reset(0)
	// Three independent adds: two issue at cycle 0, the third at cycle 1.
	times := make([]int64, 3)
	for i := 0; i < 3; i++ {
		in := addInstr(ir.Reg(10+i), ir.Reg(0), ir.Reg(1))
		times[i], _ = c.Issue(in, 0, 0, 1)
	}
	if times[0] != 0 || times[1] != 0 || times[2] != 1 {
		t.Errorf("issue times = %v, want [0 0 1]", times)
	}
}

func TestDependencyStall(t *testing.T) {
	c := NewCore(InOrder2(), 16)
	c.Reset(0)
	in1 := addInstr(1, 0, 0)
	_, done1 := c.Issue(in1, 0, c.OpReady(in1), 5) // 5-cycle op
	in2 := addInstr(2, 1, 1)                       // depends on r1
	iss2, _ := c.Issue(in2, 0, c.OpReady(in2), 1)
	if iss2 < done1 {
		t.Errorf("dependent instr issued at %d before producer done at %d", iss2, done1)
	}
}

func TestInOrderVsOoOOverlap(t *testing.T) {
	// A long-latency load followed by independent work: an OoO core hides
	// the latency better when a *dependent* op follows later.
	run := func(cfg Config) int64 {
		c := NewCore(cfg, 16)
		c.Reset(0)
		ld := ir.NewInstr(ir.OpLoad)
		ld.Dst = 1
		ld.A = ir.R(0)
		c.Issue(&ld, 0, 0, 50) // load with 50-cycle memory latency
		var last int64
		for i := 0; i < 20; i++ { // independent work
			in := addInstr(ir.Reg(2+i%4), 0, 0)
			iss, _ := c.Issue(in, 0, c.OpReady(in), 1)
			last = iss
		}
		dep := addInstr(10, 1, 1) // finally consume the load
		iss, _ := c.Issue(dep, 0, c.OpReady(dep), 1)
		if iss < 50 {
			t.Errorf("%s: consumer of load issued too early (%d)", cfg.Name, iss)
		}
		return last
	}
	ioLast := run(InOrder2())
	oooLast := run(OoO4())
	if oooLast > ioLast {
		t.Errorf("4-way OoO should finish independent work sooner: %d vs %d", oooLast, ioLast)
	}
}

func TestWiderCoreFaster(t *testing.T) {
	run := func(cfg Config) int64 {
		c := NewCore(cfg, 16)
		c.Reset(0)
		var last int64
		for i := 0; i < 100; i++ {
			in := addInstr(ir.Reg(i%8), ir.Reg((i+1)%8), ir.Reg((i+2)%8))
			_, done := c.Issue(in, 0, c.OpReady(in), 1)
			last = done
		}
		return last
	}
	if w4, w2 := run(OoO4()), run(OoO2()); w4 >= w2 {
		t.Errorf("4-way (%d) should beat 2-way (%d) on parallel work", w4, w2)
	}
}

func TestWindowLimitsOoO(t *testing.T) {
	cfg := OoO4()
	cfg.Window = 4
	c := NewCore(cfg, 16)
	c.Reset(0)
	ld := ir.NewInstr(ir.OpLoad)
	ld.Dst = 1
	ld.A = ir.R(0)
	c.Issue(&ld, 0, 0, 100)
	// With a 4-entry window, independent work cannot run 100 cycles ahead.
	var last int64
	for i := 0; i < 50; i++ {
		in := addInstr(2, 3, 4)
		last, _ = c.Issue(in, 0, c.OpReady(in), 1)
	}
	if last < 100 {
		t.Errorf("window should have throttled issue: last=%d", last)
	}
}

func TestBarrier(t *testing.T) {
	c := NewCore(InOrder2(), 8)
	c.Reset(0)
	c.Barrier(1000)
	in := addInstr(1, 0, 0)
	iss, _ := c.Issue(in, 0, 0, 1)
	if iss < 1000 {
		t.Errorf("instruction issued at %d despite barrier at 1000", iss)
	}
}

func TestLatencyTable(t *testing.T) {
	if Latency(ir.OpAdd) != 1 || Latency(ir.OpMul) <= 1 {
		t.Error("integer latencies wrong")
	}
	if Latency(ir.OpDiv) <= Latency(ir.OpMul) {
		t.Error("div should cost more than mul")
	}
	if Latency(ir.OpFDiv) <= Latency(ir.OpFAdd) {
		t.Error("fdiv should cost more than fadd")
	}
}

func TestResetAndGrow(t *testing.T) {
	c := NewCore(InOrder2(), 4)
	c.Reset(0)
	in := addInstr(3, 0, 0)
	c.Issue(in, 0, 0, 50)
	c.Reset(10)
	if c.RegReady(3) != 10 {
		t.Errorf("reset should clear scoreboard: %d", c.RegReady(3))
	}
	c.Grow(100)
	if c.RegReady(99) != 0 {
		t.Error("grow should extend the scoreboard")
	}
}
