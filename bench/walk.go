package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"helixrc/internal/alias"
	"helixrc/internal/artifact"
	"helixrc/internal/cfg"
	"helixrc/internal/ddg"
	"helixrc/internal/harness"
	"helixrc/internal/hcc"
	"helixrc/internal/induction"
	"helixrc/internal/interp"
	"helixrc/internal/ir"
	"helixrc/internal/irgen"
	"helixrc/internal/scenarios"
	"helixrc/internal/sim"
	"helixrc/internal/workloads"
)

// The layer walk calls each layer's public functions directly, on the
// inputs the workloads use, so a per-layer number can be attributed
// without instrumenting the program: the ten SPEC analogues for the
// eval and serve workloads, the registered scenarios for explore-sweep.
// Every program is compiled at HCCv3 and timed on HelixRC(16), the
// headline configuration, and retimed under the explore grid's 24
// link × signal lanes.
const walkCores = 16

var (
	walkLinks   = []int{1, 2, 4, 8, 16, 32}
	walkSignals = []int{0, 1, 2, 5}
)

// walkInput is one program of the walk: its registry name and, for a
// generated scenario, the manifest that pins it.
type walkInput struct {
	name     string
	manifest *scenarios.Manifest
}

// quickSPEC is the -quick walk's one SPEC analogue, the cheapest to
// walk.
const quickSPEC = "179.art"

// specInputs are the SPEC analogues.
func specInputs(quick bool) []walkInput {
	if quick {
		return []walkInput{{name: quickSPEC}}
	}
	var in []walkInput
	for _, n := range workloads.Names() {
		in = append(in, walkInput{name: n})
	}
	return in
}

// scenarioInputs registers the checked-in scenario packs and returns
// their manifests (the first one alone with -quick).
func scenarioInputs(packDir string, quick bool) ([]walkInput, error) {
	packs, err := scenarios.LoadDir(packDir)
	if err != nil {
		return nil, err
	}
	var in []walkInput
	for _, p := range packs {
		if err := scenarios.RegisterPack(p); err != nil {
			return nil, err
		}
		for i := range p.Scenarios {
			in = append(in, walkInput{name: p.Scenarios[i].Name, manifest: &p.Scenarios[i]})
		}
	}
	if quick {
		in = in[:1]
	}
	return in, nil
}

// layerStat accumulates the calls into one layer over the traced passes.
type layerStat struct {
	count  int
	dur    time.Duration
	allocs uint64
	bytes  uint64
	instrs int64 // instructions executed, for the layers that run programs
}

// walker runs one pass of the walk. With spans on, every call into a
// layer is timed, its heap allocations counted, and a span recorded;
// with spans off the same calls run bare, so comparing the walls of the
// two kinds of pass gives the tracing overhead.
type walker struct {
	ctx        context.Context
	spans      bool
	tr         *tracer
	dir        string // disk tier root of the artifact round trip
	stats      map[string]*layerStat
	traceBytes int64
	mismatches []string
	ms         runtime.MemStats
}

// call runs f as one call into layer on behalf of input. f returns the
// number of instructions it executed (0 for layers that run none).
func (w *walker) call(layer, input string, f func() (int64, error)) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s %s: %w", layer, input, err)
		}
	}()
	if !w.spans {
		_, err = f()
		return err
	}
	runtime.ReadMemStats(&w.ms)
	a0, b0 := w.ms.Mallocs, w.ms.TotalAlloc
	t0 := time.Now()
	instrs, err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&w.ms)
	w.tr.span(laneWalk, "layer", layer, t0, d, map[string]any{"input": input})
	st := w.stats[layer]
	if st == nil {
		st = &layerStat{}
		w.stats[layer] = st
	}
	st.count++
	st.dur += d
	st.allocs += w.ms.Mallocs - a0
	st.bytes += w.ms.TotalAlloc - b0
	st.instrs += instrs
	return err
}

// check records a failed self-check.
func (w *walker) check(ok bool, what, input string) {
	if !ok {
		w.mismatches = append(w.mismatches, what+" ("+input+")")
	}
}

// run walks every input in order.
func (w *walker) run(inputs []walkInput) error {
	for _, in := range inputs {
		t0 := time.Now()
		if err := w.input(in); err != nil {
			return err
		}
		if w.spans {
			w.tr.span(laneWalk, "input", in.name, t0, time.Since(t0), map[string]any{"input": in.name})
		}
	}
	return nil
}

// input takes one program through every layer, checking on the way
// that the simulator's engines agree on every statistic.
func (w *walker) input(in walkInput) error {
	name := in.name
	if m := in.manifest; m != nil {
		f, err := irgen.ParseFamily(m.Family)
		if err != nil {
			return err
		}
		var built scenarios.Manifest
		if err := w.call("scenarios.build", name, func() (int64, error) {
			built, _, err = scenarios.Build(f, m.Seed, m.Knobs)
			return 0, err
		}); err != nil {
			return err
		}
		w.check(built.Fingerprint == m.Fingerprint, "scenario fingerprint", name)
	}
	// Each layer gets a fresh copy: the analyses and HCC edit the
	// programs they are given.
	get := func() (*workloads.Workload, error) {
		var wl *workloads.Workload
		err := w.call("workloads.get", name, func() (int64, error) {
			var err error
			wl, err = workloads.Get(name)
			return 0, err
		})
		return wl, err
	}

	if err := w.analyses(name, get); err != nil {
		return err
	}

	// The TLP path: selection and execution on the abstract machine.
	for _, level := range []hcc.Level{hcc.V2, hcc.V3} {
		wl, err := get()
		if err != nil {
			return err
		}
		var comp *hcc.Compiled
		if err := w.call("hcc.compile_abstract", name, func() (int64, error) {
			comp, err = hcc.Compile(wl.Prog, wl.Entry, hcc.Options{Level: level, Cores: walkCores, TrainArgs: wl.TrainArgs, SelectLatency: 1})
			return 0, err
		}); err != nil {
			return err
		}
		if err := w.call("sim.run_abstract", name, func() (int64, error) {
			res, err := sim.Run(w.ctx, wl.Prog, comp, wl.Entry, sim.Abstract(walkCores), wl.RefArgs...)
			return instrsOf(res), err
		}); err != nil {
			return err
		}
	}

	wl, err := get()
	if err != nil {
		return err
	}
	if err := w.call("interp.run", name, func() (int64, error) {
		res, err := interp.Run(wl.Prog, wl.Entry, 0, wl.RefArgs...)
		return res.Steps, err
	}); err != nil {
		return err
	}

	if wl, err = get(); err != nil {
		return err
	}
	var comp *hcc.Compiled
	if err := w.call("hcc.compile", name, func() (int64, error) {
		comp, err = hcc.Compile(wl.Prog, wl.Entry, hcc.Options{Level: hcc.V3, Cores: walkCores, TrainArgs: wl.TrainArgs})
		return 0, err
	}); err != nil {
		return err
	}
	return w.timing(name, wl, comp)
}

// analyses runs the compiler's analysis passes one by one on a fresh
// copy: the CFG and loop forest of every function, points-to at every
// alias tier, then the dependence graph and induction classes of every
// loop at the tier HCCv3 uses.
func (w *walker) analyses(name string, get func() (*workloads.Workload, error)) error {
	wl, err := get()
	if err != nil {
		return err
	}
	prog := wl.Prog
	prog.AssignUIDs()
	type fnLoops struct {
		fn    *ir.Function
		g     *cfg.Graph
		loops []*cfg.Loop
	}
	var fns []fnLoops
	if err := w.call("cfg.graph", name, func() (int64, error) {
		fns = fns[:0]
		for _, f := range prog.Funcs {
			g := cfg.New(f)
			fns = append(fns, fnLoops{f, g, cfg.FindLoops(g).Loops})
		}
		return 0, nil
	}); err != nil {
		return err
	}
	var an *alias.Analysis
	for _, tier := range alias.Tiers {
		if err := w.call("alias.analyze", name, func() (int64, error) {
			a := alias.New(prog, tier)
			if tier == hcc.V3.AliasTier() {
				an = a
			}
			return 0, nil
		}); err != nil {
			return err
		}
	}
	type loopDG struct {
		fl   fnLoops
		loop *cfg.Loop
		dg   *ddg.Graph
	}
	var dgs []loopDG
	if err := w.call("ddg.build", name, func() (int64, error) {
		for _, fl := range fns {
			for _, l := range fl.loops {
				dgs = append(dgs, loopDG{fl, l, ddg.Build(prog, fl.fn, fl.g, l, an)})
			}
		}
		return 0, nil
	}); err != nil {
		return err
	}
	return w.call("induction.classify", name, func() (int64, error) {
		for _, d := range dgs {
			induction.Classify(d.fl.fn, d.fl.g, d.loop, d.dg.CarriedRegs)
		}
		return 0, nil
	})
}

// timing records the compiled program, moves its trace through the
// codec and a disk tier, and retimes it every way the harness does:
// solo replay, batched replay over the lanes, execution-driven run.
// Each must reproduce the recording's Result exactly.
func (w *walker) timing(name string, wl *workloads.Workload, comp *hcc.Compiled) error {
	arch := sim.HelixRC(walkCores)
	var rec *sim.Result
	var tr *sim.Trace
	if err := w.call("sim.record", name, func() (int64, error) {
		var err error
		rec, tr, err = sim.Record(w.ctx, wl.Prog, comp, wl.Entry, arch, wl.RefArgs...)
		return instrsOf(rec), err
	}); err != nil {
		return err
	}

	var data []byte
	if err := w.call("sim.encode", name, func() (int64, error) {
		var err error
		data, err = sim.EncodeTrace(tr)
		return 0, err
	}); err != nil {
		return err
	}
	w.traceBytes += int64(len(data))
	var dec *sim.Trace
	if err := w.call("sim.decode", name, func() (int64, error) {
		var err error
		dec, err = sim.DecodeTrace(data)
		return 0, err
	}); err != nil {
		return err
	}
	w.check(sameEncoding(dec, data), "trace codec round trip", name)

	key := "walk/" + name
	if err := w.call("artifact.disk_save", name, func() (int64, error) {
		w.traceStore().Put(key, tr)
		return 0, nil
	}); err != nil {
		return err
	}
	var loaded *sim.Trace
	if err := w.call("artifact.disk_load", name, func() (int64, error) {
		var ok bool
		if loaded, ok = w.traceStore().Peek(key); !ok {
			return 0, errors.New("disk tier missed the saved trace")
		}
		return 0, nil
	}); err != nil {
		return err
	}
	w.check(sameEncoding(loaded, data), "disk tier round trip", name)

	var rep *sim.Result
	if err := w.call("sim.replay", name, func() (int64, error) {
		var err error
		rep, err = sim.Replay(w.ctx, tr, arch)
		return instrsOf(rep), err
	}); err != nil {
		return err
	}
	w.check(reflect.DeepEqual(rep, rec), "Replay == Record", name)

	var lanes []sim.Config
	for _, l := range walkLinks {
		for _, s := range walkSignals {
			lanes = append(lanes, harness.SweepConfig{Cores: walkCores, Link: l, Signals: s}.Arch())
		}
	}
	var batch []*sim.Result
	if err := w.call("sim.replay_batch", name, func() (int64, error) {
		var errs []error
		batch, errs = sim.ReplayBatch(w.ctx, tr, lanes)
		var n int64
		for _, r := range batch {
			n += instrsOf(r)
		}
		return n, errors.Join(errs...)
	}); err != nil {
		return err
	}
	for i, lane := range lanes {
		solo, err := sim.Replay(w.ctx, tr, lane)
		if err != nil {
			return fmt.Errorf("solo replay %s lane %d: %w", name, i, err)
		}
		w.check(reflect.DeepEqual(batch[i], solo), fmt.Sprintf("ReplayBatch lane %d == Replay", i), name)
	}

	var run *sim.Result
	if err := w.call("sim.run", name, func() (int64, error) {
		var err error
		run, err = sim.Run(w.ctx, wl.Prog, comp, wl.Entry, arch, wl.RefArgs...)
		return instrsOf(run), err
	}); err != nil {
		return err
	}
	w.check(reflect.DeepEqual(run, rec), "Run == Record", name)
	return nil
}

// traceStore opens the walk's disk-backed trace store with an empty
// memory tier, so a Peek after a Put is served by the disk tier.
func (w *walker) traceStore() *artifact.Store[*sim.Trace] {
	s := artifact.NewStore("trace", "bench-walk", (*sim.Trace).SizeBytes,
		&artifact.Codec[*sim.Trace]{Encode: sim.EncodeTrace, Decode: sim.DecodeTrace})
	s.SetDir(w.dir)
	return s
}

func instrsOf(r *sim.Result) int64 {
	if r == nil {
		return 0
	}
	return r.Instrs
}

// sameEncoding reports whether t re-encodes to exactly data.
func sameEncoding(t *sim.Trace, data []byte) bool {
	enc, err := sim.EncodeTrace(t)
	return err == nil && bytes.Equal(enc, data)
}

// walkPasses orders the walk's passes by whether spans are on: a
// discarded warm-up, then off, on, on, off, so the overhead estimate
// cancels the warm-up and any linear drift of the machine's speed.
var walkPasses = []bool{false, false, true, true, false}

// walk runs the layer walk over the workload's inputs and adds the
// per-layer metrics of its traced passes.
func (r *runner) walk(overScenarios bool) error {
	var inputs []walkInput
	if overScenarios {
		var err error
		if inputs, err = scenarioInputs(r.env.path("scenarios"), r.quick); err != nil {
			return err
		}
	} else {
		inputs = specInputs(r.quick)
	}
	r.tr.thread(laneWalk, "layer walk")
	stats := map[string]*layerStat{}
	walls := map[bool]time.Duration{} // summed wall of the measured passes, by spans
	for pass, spans := range walkPasses {
		w := &walker{ctx: r.ctx, spans: spans, tr: r.tr, dir: filepath.Join(r.work, "walk"), stats: stats}
		t0 := time.Now()
		if err := w.run(inputs); err != nil {
			return err
		}
		if pass > 0 {
			walls[spans] += time.Since(t0)
		}
		for _, m := range w.mismatches {
			r.problem("walk self-check failed: %s", m)
		}
		r.vals["walk.mismatches"] += float64(len(w.mismatches))
		r.vals["sim.trace_mb"] = float64(w.traceBytes) / (1 << 20)
	}
	r.vals["walk.trace_overhead_ms"] = ms(walls[true]-walls[false]) / 2
	r.layerTable = r.layerTable[:0]
	for _, l := range walkLayers {
		st := stats[l.name]
		if st == nil {
			continue
		}
		n := float64(st.count)
		if l.rate != "" {
			r.vals[l.rate] = float64(st.instrs) / st.dur.Seconds() / 1e6
		} else {
			r.vals[l.name+"_ms"] = ms(st.dur) / n
		}
		r.vals[l.name+".allocs_per_op"] = float64(st.allocs) / n
		r.vals[l.name+".kb_per_op"] = float64(st.bytes) / n / 1024
		r.layerTable = append(r.layerTable, layerRow{l.name, *st})
	}
	return nil
}

// layerRow is one line of the walk's per-layer table.
type layerRow struct {
	name string
	layerStat
}

func printLayerTable(out io.Writer, rows []layerRow) {
	fmt.Fprintf(out, "%-22s %6s %11s %11s %13s %11s %10s\n", "layer", "count", "total_ms", "ms/op", "allocs/op", "KB/op", "Minstr/s")
	for _, row := range rows {
		n := float64(row.count)
		rate := "-"
		if row.instrs > 0 {
			rate = fmt.Sprintf("%.2f", float64(row.instrs)/row.dur.Seconds()/1e6)
		}
		fmt.Fprintf(out, "%-22s %6d %11.3f %11.4f %13.1f %11.1f %10s\n", row.name, row.count, ms(row.dur),
			ms(row.dur)/n, float64(row.allocs)/n, float64(row.bytes)/n/1024, rate)
	}
	fmt.Fprintln(out, strings.Repeat("-", 90))
}
