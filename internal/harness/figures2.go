package harness

import (
	"context"
	"fmt"
	"strings"

	"helixrc/internal/cpu"
	"helixrc/internal/hcc"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// figure10Cells lists Figure 10's cells: per CINT2000 workload and core
// type (2-way in-order, 2-way and 4-way out-of-order), HCCv3 code on the
// ring cache against a sequential baseline on the same core.
func figure10Cells(cores int) []simCell {
	names, ccs := workloads.IntNames(), []cpu.Config{cpu.InOrder2(), cpu.OoO2(), cpu.OoO4()}
	cells := make([]simCell, 0, len(names)*len(ccs))
	for _, name := range names {
		for _, cc := range ccs {
			arch, base := sim.HelixRC(cores), sim.Conventional(cores)
			arch.Core, base.Core = cc, cc
			cells = append(cells, simCell{name: name, level: hcc.V3, arch: arch, base: base})
		}
	}
	return cells
}

// Figure10 sweeps core complexity: 2-way in-order (the default), 2-way
// and 4-way out-of-order. The second series block reports each core's
// sequential time normalized to the 4-way OoO core (the paper's lower
// panel).
func (e *Env) Figure10(ctx context.Context, cores int) (*FigureResult, error) {
	f := &FigureResult{
		Title: "Figure 10: speedup by core type (upper) and sequential time vs 4-way OoO (lower)",
		Series: []string{
			"2-way IO", "2-way OoO", "4-way OoO",
			"seqIO/seqOoO4", "seqOoO2/seqOoO4",
		},
		Notes: "Paper shape: HELIX-RC still speeds up OoO cores; 4-way OoO sequential is ~1.9x faster than in-order; 164.gzip benefits least.",
	}
	// The three core models share one HCCv3 trace (and the three
	// sequential baselines share one baseline trace): two batched
	// retimes per workload cover all the cells.
	cells := figure10Cells(cores)
	label := func(i int) string {
		return fmt.Sprintf("%s/L%d/%s", cells[i].name, hcc.V3, cells[i].arch.Core.Name)
	}
	rs, err := e.simulate(ctx, cells, label)
	if err != nil {
		return nil, err
	}
	// Cells 3i..3i+2 are workload i's core types, the 4-way OoO last.
	seqCycles := func(i int) float64 {
		if rs[i].seq == nil {
			return 0
		}
		return float64(rs[i].seq.Cycles)
	}
	f.Rows = speedupRows(workloads.IntNames(), speedups(rs))
	for i := range f.Rows {
		f.Rows[i].Values = append(f.Rows[i].Values,
			seqCycles(3*i)/seqCycles(3*i+2), seqCycles(3*i+1)/seqCycles(3*i+2))
	}
	f.Geomean = geomeans(f.Rows)
	return f, nil
}

// fig11Variant is one sweep point of a Figure 11 panel.
type fig11Variant struct {
	label string
	arch  sim.Config
}

// figure11Panel defines one Figure 11 panel: its title and sweep
// points.
func figure11Panel(which string) (string, []fig11Variant, error) {
	mk := func(mod func(*sim.Config)) sim.Config {
		c := sim.HelixRC(16)
		mod(&c)
		return c
	}
	var title string
	var variants []fig11Variant
	switch which {
	case "cores":
		title = "Figure 11a: sensitivity to core count"
		for _, n := range []int{2, 4, 8, 16} {
			variants = append(variants, fig11Variant{
				label: fmt.Sprintf("%d cores", n),
				arch:  sim.HelixRC(n),
			})
		}
	case "link":
		title = "Figure 11b: sensitivity to adjacent node link latency"
		for _, l := range []int{1, 4, 8, 16, 32} {
			variants = append(variants, fig11Variant{
				label: fmt.Sprintf("%d cycle", l),
				arch:  mk(func(c *sim.Config) { c.Ring.LinkLatency = l }),
			})
		}
	case "signals":
		title = "Figure 11c: sensitivity to signal bandwidth"
		for _, s := range []int{0, 4, 2, 1} { // 0 = unbounded
			label := fmt.Sprintf("%d signals", s)
			if s == 0 {
				label = "unbounded"
			}
			variants = append(variants, fig11Variant{
				label: label,
				arch:  mk(func(c *sim.Config) { c.Ring.SignalBandwidth = s }),
			})
		}
	case "memory":
		title = "Figure 11d: sensitivity to node memory size"
		for _, kb := range []int{0, 32768, 1024, 256} { // bytes; 0 = unbounded
			label := fmt.Sprintf("%dB", kb)
			if kb == 0 {
				label = "unbounded"
			}
			variants = append(variants, fig11Variant{
				label: label,
				arch:  mk(func(c *sim.Config) { c.Ring.ArrayBytes = kb }),
			})
		}
	default:
		return "", nil, fmt.Errorf("harness: unknown Figure 11 panel %q", which)
	}
	return title, variants, nil
}

// figure11Cells lists one Figure 11 panel's cells (nil for an unknown
// panel): per CINT2000 workload and sweep point, HCCv3 code under the
// point's ring. The core-count panel needs a fresh trace per point,
// each recorded in parallel on the prefetch pool; the other panels
// retime one 16-core trace per workload in a single batched traversal.
func figure11Cells(which string) []simCell {
	_, variants, err := figure11Panel(which)
	if err != nil {
		return nil
	}
	names := workloads.IntNames()
	cells := make([]simCell, 0, len(names)*len(variants))
	for _, name := range names {
		for _, v := range variants {
			cells = append(cells, simCell{name: name, level: hcc.V3,
				arch: v.arch, base: sim.Conventional(v.arch.Cores)})
		}
	}
	return cells
}

// Figure11 sweeps one architectural parameter of the ring cache at a time
// over the CINT2000 analogues. which selects the panel: "cores", "link",
// "signals" or "memory".
func (e *Env) Figure11(ctx context.Context, which string) (*FigureResult, error) {
	title, variants, err := figure11Panel(which)
	if err != nil {
		return nil, err
	}
	f := &FigureResult{Title: title}
	for _, v := range variants {
		f.Series = append(f.Series, v.label)
	}
	cells := figure11Cells(which)
	label := func(i int) string {
		return fmt.Sprintf("%s/%s/%s", cells[i].name, which, variants[i%len(variants)].label)
	}
	rs, err := e.simulate(ctx, cells, label)
	if err != nil {
		return nil, err
	}
	f.Rows = speedupRows(workloads.IntNames(), speedups(rs))
	f.Geomean = geomeans(f.Rows)
	return f, nil
}

// Figure12Row is one benchmark's overhead taxonomy plus its speedup.
type Figure12Row struct {
	Name    string
	Shares  []float64 // in sim.ShareNames order
	Speedup float64
}

// figure12Cells lists Figure 12's cells: per workload, HELIX-RC
// (HCCv3 on the ring cache).
func figure12Cells(cores int) []simCell {
	names := workloads.Names()
	cells := make([]simCell, 0, len(names))
	for _, name := range names {
		cells = append(cells, simCell{name: name, level: hcc.V3, arch: sim.HelixRC(cores), base: sim.Conventional(cores)})
	}
	return cells
}

// Figure12 categorizes every overhead cycle that prevents ideal speedup.
func (e *Env) Figure12(ctx context.Context, cores int) ([]Figure12Row, error) {
	cells := figure12Cells(cores)
	label := func(i int) string { return fmt.Sprintf("%s/L%d/rc%d", cells[i].name, hcc.V3, cores) }
	rs, err := e.simulate(ctx, cells, label)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure12Row, len(rs))
	for i, r := range rs {
		if r.run != nil {
			rows[i] = Figure12Row{Name: cells[i].name, Shares: r.run.Overheads.Shares(), Speedup: r.speedup()}
		}
	}
	return rows, nil
}

// FormatFigure12 renders the overhead table.
func FormatFigure12(rows []Figure12Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 12: breakdown of overheads that prevent ideal speedup\n")
	fmt.Fprintf(&sb, "%-12s", "benchmark")
	for _, n := range sim.ShareNames {
		fmt.Fprintf(&sb, " %13s", n)
	}
	fmt.Fprintf(&sb, " %9s\n", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s", r.Name)
		for _, s := range r.Shares {
			fmt.Fprintf(&sb, " %12.1f%%", 100*s)
		}
		fmt.Fprintf(&sb, " %8.1fx\n", r.Speedup)
	}
	sb.WriteString("Paper shape: low trip count dominates vpr/twolf/bzip2/art; dependence waiting weighs on gzip/parser/mcf.\n")
	return sb.String()
}

// TLPResult holds the Section 6.2 TLP statistics: thread-level
// parallelism and sequential-segment size under conservative (HCCv2-
// style) and aggressive (HCCv3) splitting, measured on the abstract
// 1-IPC communication-free machine.
type TLPResult struct {
	ConservativeTLP float64
	AggressiveTLP   float64
	ConservativeSeg float64
	AggressiveSeg   float64
}

// Format renders the statistic.
func (r *TLPResult) Format() string {
	return fmt.Sprintf(
		"Section 6.2 TLP: conservative splitting TLP=%.1f (avg %.1f instrs/segment); "+
			"aggressive splitting TLP=%.1f (avg %.1f instrs/segment)\n"+
			"Paper shape: TLP 6.4 -> 14.2; instructions per segment 8.5 -> 3.2.\n",
		r.ConservativeTLP, r.ConservativeSeg, r.AggressiveTLP, r.AggressiveSeg)
}

// tlpRun serves one Section 6.2 cell from the cell store: the
// workload's build compiled at level for 16 cores with
// communication-free loop selection, then simulated execution-driven on
// the abstract machine over the ref input. The cell keeps the run's
// whole Result.
func (e *Env) tlpRun(ctx context.Context, name string, level hcc.Level) (*sim.Result, error) {
	arch := sim.Abstract(16)
	params := []string{"sel1", "ref=true", arch.Fingerprint()}
	c, err := e.persistedCell(ctx, "tlp", name, level, 16, params, func(ctx context.Context, b *build) (*cell, error) {
		prof, err := e.trainedProfile(ctx, b, 16)
		if err != nil {
			return nil, err
		}
		w := b.w
		comp, err := e.compile(b, hcc.Options{
			Level: level, Cores: 16, TrainArgs: w.TrainArgs,
			// Selection under the abstract machine: communication-free.
			SelectLatency: 1,
		}, prof)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(ctx, w.Prog, comp, w.Entry, arch, w.RefArgs...)
		if err != nil {
			return nil, err
		}
		return &cell{res: res}, nil
	})
	if err != nil {
		return nil, err
	}
	return c.res, nil
}

// TLP measures thread-level parallelism on the abstract machine for
// HCCv2-style merged segments vs HCCv3 aggressive splitting, over the
// CINT2000 analogues.
func (e *Env) TLP(ctx context.Context) (*TLPResult, error) {
	out := &TLPResult{}
	names := workloads.IntNames()
	levels := []hcc.Level{hcc.V2, hcc.V3}
	// One cell per (workload, splitting policy), each served by tlpRun
	// (V2 under abstract selection differs from the compile-tier key),
	// so cells are fully independent.
	type stat struct {
		tlp, seg float64
		hasSeg   bool
	}
	label := func(i int) string {
		return fmt.Sprintf("%s/L%d/abstract16", names[i/len(levels)], levels[i%len(levels)])
	}
	cells, err := parMapCells(ctx, e.workers, e.cellTimeout, len(names)*len(levels), label, func(ctx context.Context, i int) (stat, error) {
		res, err := e.tlpRun(ctx, names[i/len(levels)], levels[i%len(levels)])
		if err != nil {
			return stat{}, err
		}
		return stat{tlp: res.TLP(), seg: res.AvgSegInstrs(), hasSeg: res.SegEntries > 0}, nil
	})
	if err != nil {
		return nil, err
	}
	var consTLP, aggTLP []float64
	var consSegSum, consSegN, aggSegSum, aggSegN float64
	// Assemble in cell order so the float accumulations (and hence the
	// geomeans) are bit-identical to a sequential run.
	for i, c := range cells {
		if levels[i%len(levels)] == hcc.V2 {
			consTLP = append(consTLP, c.tlp)
			if c.hasSeg {
				consSegSum += c.seg
				consSegN++
			}
		} else {
			aggTLP = append(aggTLP, c.tlp)
			if c.hasSeg {
				aggSegSum += c.seg
				aggSegN++
			}
		}
	}
	out.ConservativeTLP = Geomean(consTLP)
	out.AggressiveTLP = Geomean(aggTLP)
	if consSegN > 0 {
		out.ConservativeSeg = consSegSum / consSegN
	}
	if aggSegN > 0 {
		out.AggressiveSeg = aggSegSum / aggSegN
	}
	return out, nil
}
