package hcc

import (
	"fmt"
	"testing"

	"helixrc/internal/induction"
	"helixrc/internal/ir"
)

// TestLoopTextMatchesFmt pins appendText to the bytes fmt's %v printed
// for each loop field before Fingerprint stopped calling fmt, on a loop
// that fills every field, including the ones no workload's compile sets
// (negated steps, last-value UIDs, a register-free operand).
func TestLoopTextMatchesFmt(t *testing.T) {
	fn := &ir.Function{Name: "main", Blocks: []*ir.Block{{Index: 0}, {Index: 1}, {Index: 2}, {Index: 3}}}
	pl := &ParallelLoop{
		Fn: fn, Header: fn.Blocks[1], IterParam: 17, Counted: true, CtlAddr: 1 << 20, NumSegs: 3,
		ExitTargets: []*ir.Block{fn.Blocks[3], fn.Blocks[2]},
		LiveOutRegs: []ir.Reg{2, 11},
		SlotOf:      map[ir.Reg]int64{12: 1<<20 + 2, 3: 1<<20 + 1},
		Recompute: map[ir.Reg]RecomputeRule{
			9: {Kind: RecLinear, Shadow: 20, Step: ir.C(-4), Negate: true},
			4: {Kind: RecPoly2, Shadow: 21, InnerShadow: 22, Step: ir.R(5), Step2: ir.C(2), Step2Negate: true},
			6: {Kind: RecLinear, Shadow: ir.NoReg, Step: ir.Value{}},
		},
		Reductions: map[ir.Reg]induction.ReduceKind{8: 1, 1: 0},
		LastValue:  map[ir.Reg][]int32{10: {41, 40}, 7: nil},
	}
	exits := []int{3, 2}
	want := fmt.Sprintf("loop fn=%s header=%d iter=%v counted=%t ctl=%d segs=%d exits=%v liveout=%v\n",
		pl.Fn.Name, pl.Header.Index, pl.IterParam, pl.Counted, pl.CtlAddr, pl.NumSegs, exits, pl.LiveOutRegs)
	want += fmt.Sprintf("slots=%v recompute=%v reduce=%v lastvalue=%v\n",
		pl.SlotOf, pl.Recompute, pl.Reductions, pl.LastValue)
	if got := string(pl.appendText(nil)); got != want {
		t.Errorf("appendText wrote\n%s\nfmt writes\n%s", got, want)
	}
	empty := &ParallelLoop{Fn: fn, Header: fn.Blocks[0], IterParam: ir.NoReg}
	want = fmt.Sprintf("loop fn=%s header=%d iter=%v counted=%t ctl=%d segs=%d exits=%v liveout=%v\n",
		empty.Fn.Name, empty.Header.Index, empty.IterParam, empty.Counted, empty.CtlAddr, empty.NumSegs, []int{}, empty.LiveOutRegs)
	want += fmt.Sprintf("slots=%v recompute=%v reduce=%v lastvalue=%v\n",
		empty.SlotOf, empty.Recompute, empty.Reductions, empty.LastValue)
	if got := string(empty.appendText(nil)); got != want {
		t.Errorf("appendText wrote\n%s\nfmt writes\n%s", got, want)
	}
}
