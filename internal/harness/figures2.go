package harness

import (
	"context"
	"fmt"
	"strings"

	"helixrc/internal/cfg"
	"helixrc/internal/cpu"
	"helixrc/internal/ddg"
	"helixrc/internal/hcc"
	"helixrc/internal/induction"
	"helixrc/internal/ir"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

func inductionClassify(pl *hcc.ParallelLoop, g *cfg.Graph, dg *ddg.Graph) map[ir.Reg]induction.Info {
	return induction.Classify(pl.Fn, g, pl.Loop, dg.CarriedRegs)
}

// figure10CoreConfigs lists Figure 10's core-complexity sweep: 2-way
// in-order, 2-way and 4-way out-of-order. Shared with the shard
// planner's experimentGroups.
func figure10CoreConfigs() []cpu.Config {
	return []cpu.Config{cpu.InOrder2(), cpu.OoO2(), cpu.OoO4()}
}

// Figure10 sweeps core complexity: 2-way in-order (the default), 2-way
// and 4-way out-of-order. The second series block reports each core's
// sequential time normalized to the 4-way OoO core (the paper's lower
// panel).
func Figure10(ctx context.Context, cores int) (*FigureResult, error) {
	f := &FigureResult{
		Title: "Figure 10: speedup by core type (upper) and sequential time vs 4-way OoO (lower)",
		Series: []string{
			"2-way IO", "2-way OoO", "4-way OoO",
			"seqIO/seqOoO4", "seqOoO2/seqOoO4",
		},
		Notes: "Paper shape: HELIX-RC still speeds up OoO cores; 4-way OoO sequential is ~1.9x faster than in-order; 164.gzip benefits least.",
	}
	coreCfgs := figure10CoreConfigs()
	names := workloads.IntNames()
	// The three core models share one HCCv3 trace (and the three
	// sequential baselines share one baseline trace): two batched
	// retimes per workload cover all six cells.
	prefetchRetimes(ctx, experimentGroups("fig10", cores))
	// One cell per (workload, core type); each reports the speedup and
	// its sequential cycle count for the lower-panel ratios.
	type cell struct {
		speedup   float64
		seqCycles int64
	}
	label := func(i int) string {
		return fmt.Sprintf("%s/L%d/%s", names[i/len(coreCfgs)], hcc.V3, coreCfgs[i%len(coreCfgs)].Name)
	}
	cells, err := parMapCells(ctx, len(names)*len(coreCfgs), label, func(ctx context.Context, i int) (cell, error) {
		name, cc := names[i/len(coreCfgs)], coreCfgs[i%len(coreCfgs)]
		arch := sim.HelixRC(cores)
		arch.Core = cc
		seqArch := sim.Conventional(cores)
		seqArch.Core = cc
		seq, err := CachedBaseline(ctx, name, seqArch, true)
		if err != nil {
			return cell{}, err
		}
		res, err := runOn(ctx, name, hcc.V3, arch, true)
		if err != nil {
			return cell{}, err
		}
		return cell{speedup: sim.Speedup(seq, res), seqCycles: seq.Cycles}, nil
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		row := SpeedupRow{Name: name}
		base := ni * len(coreCfgs)
		for ci := range coreCfgs {
			row.Values = append(row.Values, cells[base+ci].speedup)
		}
		row.Values = append(row.Values,
			float64(cells[base+0].seqCycles)/float64(cells[base+2].seqCycles),
			float64(cells[base+1].seqCycles)/float64(cells[base+2].seqCycles))
		f.Rows = append(f.Rows, row)
	}
	f.Geomean = make([]float64, 5)
	for i := 0; i < 5; i++ {
		f.Geomean[i] = geomeanColumn(f.Rows, i)
	}
	return f, nil
}

// fig11Variant is one sweep point of a Figure 11 panel.
type fig11Variant struct {
	label string
	arch  func() sim.Config
}

// figure11Panel defines one Figure 11 panel: its title and sweep
// points. Shared by Figure11 (which renders the panel) and the shard
// planner (which enumerates its trace groups without rendering).
func figure11Panel(which string) (string, []fig11Variant, error) {
	mk := func(mod func(*sim.Config)) func() sim.Config {
		return func() sim.Config {
			c := sim.HelixRC(16)
			mod(&c)
			return c
		}
	}
	var title string
	var variants []fig11Variant
	switch which {
	case "cores":
		title = "Figure 11a: sensitivity to core count"
		for _, n := range []int{2, 4, 8, 16} {
			n := n
			variants = append(variants, fig11Variant{
				label: fmt.Sprintf("%d cores", n),
				arch:  func() sim.Config { return sim.HelixRC(n) },
			})
		}
	case "link":
		title = "Figure 11b: sensitivity to adjacent node link latency"
		for _, l := range []int{1, 4, 8, 16, 32} {
			l := l
			variants = append(variants, fig11Variant{
				label: fmt.Sprintf("%d cycle", l),
				arch:  mk(func(c *sim.Config) { c.Ring.LinkLatency = l }),
			})
		}
	case "signals":
		title = "Figure 11c: sensitivity to signal bandwidth"
		for _, s := range []int{0, 4, 2, 1} { // 0 = unbounded
			s := s
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
			kb := kb
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

// figure11Groups enumerates one panel's trace groups. The core-count
// panel needs a fresh trace (and so a full recording) per sweep point
// — singleton groups let the prefetch pool record them in parallel.
// The other panels retime one 16-core trace per workload under every
// sweep point in a single batched traversal.
func figure11Groups(which string) []retimeGroup {
	_, variants, err := figure11Panel(which)
	if err != nil {
		return nil
	}
	names := workloads.IntNames()
	groups := make([]retimeGroup, 0, len(names)*(len(variants)+1))
	for _, name := range names {
		groups = append(groups, retimeGroup{
			name: name, ref: true, baseline: true,
			archs: []sim.Config{sim.Conventional(16)},
		})
		if which == "cores" {
			for _, v := range variants {
				groups = append(groups, retimeGroup{
					name: name, level: hcc.V3, ref: true,
					archs: []sim.Config{v.arch()},
				})
			}
		} else {
			archs := make([]sim.Config, len(variants))
			for i, v := range variants {
				archs[i] = v.arch()
			}
			groups = append(groups, retimeGroup{name: name, level: hcc.V3, ref: true, archs: archs})
		}
	}
	return groups
}

// Figure11 sweeps one architectural parameter of the ring cache at a time
// over the CINT2000 analogues. which selects the panel: "cores", "link",
// "signals" or "memory".
func Figure11(ctx context.Context, which string) (*FigureResult, error) {
	title, variants, err := figure11Panel(which)
	if err != nil {
		return nil, err
	}
	f := &FigureResult{Title: title}
	for _, v := range variants {
		f.Series = append(f.Series, v.label)
	}
	names := workloads.IntNames()
	prefetchRetimes(ctx, figure11Groups(which))
	// One cell per (workload, sweep point).
	cell := func(i int) string {
		return fmt.Sprintf("%s/%s/%s", names[i/len(variants)], which, variants[i%len(variants)].label)
	}
	vals, err := parMapCells(ctx, len(names)*len(variants), cell, func(ctx context.Context, i int) (float64, error) {
		name, v := names[i/len(variants)], variants[i%len(variants)]
		arch := v.arch()
		seq, err := CachedBaseline(ctx, name, sim.Conventional(arch.Cores), true)
		if err != nil {
			return 0, err
		}
		res, err := runOn(ctx, name, hcc.V3, arch, true)
		if err != nil {
			return 0, err
		}
		return sim.Speedup(seq, res), nil
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		f.Rows = append(f.Rows, SpeedupRow{Name: name, Values: vals[ni*len(variants) : (ni+1)*len(variants)]})
	}
	f.Geomean = make([]float64, len(variants))
	for i := range variants {
		f.Geomean[i] = geomeanColumn(f.Rows, i)
	}
	return f, nil
}

// Figure12Row is one benchmark's overhead taxonomy plus its speedup.
type Figure12Row struct {
	Name    string
	Shares  []float64 // in sim.ShareNames order
	Speedup float64
}

// Figure12 categorizes every overhead cycle that prevents ideal speedup.
func Figure12(ctx context.Context, cores int) ([]Figure12Row, error) {
	names := workloads.Names()
	prefetchRetimes(ctx, experimentGroups("fig12", cores))
	cell := func(i int) string { return fmt.Sprintf("%s/L%d/rc%d", names[i], hcc.V3, cores) }
	return parMapCells(ctx, len(names), cell, func(ctx context.Context, i int) (Figure12Row, error) {
		name := names[i]
		seq, err := CachedBaseline(ctx, name, sim.Conventional(cores), true)
		if err != nil {
			return Figure12Row{}, err
		}
		res, err := runOn(ctx, name, hcc.V3, sim.HelixRC(cores), true)
		if err != nil {
			return Figure12Row{}, err
		}
		return Figure12Row{
			Name:    name,
			Shares:  res.Overheads.Shares(),
			Speedup: sim.Speedup(seq, res),
		}, nil
	})
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

// tlpRun serves one Section 6.2 cell: the workload compiled at level
// for 16 cores with communication-free loop selection, then simulated
// execution-driven on the abstract machine over the ref input. The
// Result is a pure function of content, so it persists in the result
// tier under its own key grammar (res/tlp/...) and a warm run neither
// compiles nor simulates.
func tlpRun(ctx context.Context, name string, level hcc.Level) (*sim.Result, error) {
	arch := sim.Abstract(16)
	run := func(ctx context.Context) (*sim.Result, error) {
		prof, err := trainedProfile(ctx, name, 16)
		if err != nil {
			return nil, err
		}
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		compiles.Add(1)
		comp, err := hcc.CompileWith(w.Prog, w.Entry, hcc.Options{
			Level: level, Cores: 16, TrainArgs: w.TrainArgs,
			// Selection under the abstract machine: communication-free.
			SelectLatency: 1,
		}, prof)
		if err != nil {
			return nil, err
		}
		return sim.Run(ctx, w.Prog, comp, w.Entry, arch, w.RefArgs...)
	}
	fp, err := workloadFingerprint(ctx, name)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("res/tlp/%s/L%d/c16/sel1/ref=true/%s/%s", name, level, fp, arch.Fingerprint())
	return resStore.Get(ctx, key, run)
}

// TLP measures thread-level parallelism on the abstract machine for
// HCCv2-style merged segments vs HCCv3 aggressive splitting, over the
// CINT2000 analogues.
func TLP(ctx context.Context) (*TLPResult, error) {
	out := &TLPResult{}
	names := workloads.IntNames()
	levels := []hcc.Level{hcc.V2, hcc.V3}
	// One cell per (workload, splitting policy), each served by tlpRun
	// (V2 under abstract selection differs from the compile-tier key),
	// so cells are fully independent.
	type cell struct {
		tlp, seg float64
		hasSeg   bool
	}
	label := func(i int) string {
		return fmt.Sprintf("%s/L%d/abstract16", names[i/len(levels)], levels[i%len(levels)])
	}
	cells, err := parMapCells(ctx, len(names)*len(levels), label, func(ctx context.Context, i int) (cell, error) {
		res, err := tlpRun(ctx, names[i/len(levels)], levels[i%len(levels)])
		if err != nil {
			return cell{}, err
		}
		return cell{tlp: res.TLP(), seg: res.AvgSegInstrs(), hasSeg: res.SegEntries > 0}, nil
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
