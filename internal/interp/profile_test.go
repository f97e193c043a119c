package interp

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"helixrc/internal/cfg"
	"helixrc/internal/ir"
	"helixrc/internal/irgen"
	"helixrc/internal/scenarios"
	"helixrc/internal/workloads"
)

// The reference model below is the profiler as it was before its state
// went flat: per-loop maps from address to record, per-address maps from
// instruction to last access, per-write consumer-core sets, and profiles
// keyed by *cfg.Loop and *ir.Block. TestProfilerMatchesMapModel pins the
// flat profiler to it field by field.

type refLoopProfile struct {
	Fn   *ir.Function
	Loop *cfg.Loop

	Invocations, Iterations, InstrTotal int64
	IterLens, TripCounts                []int32
	Deps                                map[DepPair]int64
	SharedAddrs                         map[int64]struct{}
	HopDist                             []int64
	ConsumerCounts                      map[int]int64

	addrState     map[int64]*refAddrRecord
	curIterInstrs int64
}

type refAccessRecord struct {
	lastIter int64
	isWrite  bool
}

type refAddrRecord struct {
	byInstr       map[int32]refAccessRecord
	writeIter     int64
	haveWrite     bool
	firstConsumed bool
	consumers     map[int]struct{}
}

type refProfile struct {
	Loops       map[*cfg.Loop]*refLoopProfile
	Conflicts   map[*cfg.Loop]map[*cfg.Loop]bool
	BlockCount  map[*ir.Block]int64
	TotalInstrs int64
	RetValue    int64
}

type refActiveLoop struct {
	lp         *refLoopProfile
	iter       int64
	frameDepth int
}

func refRun(pr *Profiler, fn *ir.Function, args ...int64) (*refProfile, error) {
	ring, budget := profileDefaults(pr.RingSize, pr.Budget)
	c := NewContext(pr.Prog, NewMemory(pr.Prog), fn, args...)
	prof := &refProfile{
		Loops:      map[*cfg.Loop]*refLoopProfile{},
		Conflicts:  map[*cfg.Loop]map[*cfg.Loop]bool{},
		BlockCount: map[*ir.Block]int64{},
	}
	if _, blk, _ := c.Frame(); blk != nil {
		prof.BlockCount[blk]++
	}
	addConflict := func(a, b *cfg.Loop) {
		if prof.Conflicts[a] == nil {
			prof.Conflicts[a] = map[*cfg.Loop]bool{}
		}
		if prof.Conflicts[b] == nil {
			prof.Conflicts[b] = map[*cfg.Loop]bool{}
		}
		prof.Conflicts[a][b] = true
		prof.Conflicts[b][a] = true
	}
	var stack []refActiveLoop
	depth := 1
	getLP := func(f *ir.Function, l *cfg.Loop) *refLoopProfile {
		lp := prof.Loops[l]
		if lp == nil {
			lp = &refLoopProfile{
				Fn: f, Loop: l,
				Deps:           map[DepPair]int64{},
				SharedAddrs:    map[int64]struct{}{},
				HopDist:        make([]int64, ring/2+1),
				ConsumerCounts: map[int]int64{},
				addrState:      map[int64]*refAddrRecord{},
			}
			prof.Loops[l] = lp
		}
		return lp
	}
	endIteration := func(al *refActiveLoop) {
		if len(al.lp.IterLens) < maxSamples {
			al.lp.IterLens = append(al.lp.IterLens, int32(al.lp.curIterInstrs))
		}
		al.lp.curIterInstrs = 0
	}
	popLoop := func() {
		al := &stack[len(stack)-1]
		endIteration(al)
		if len(al.lp.TripCounts) < maxSamples {
			al.lp.TripCounts = append(al.lp.TripCounts, int32(al.iter+1))
		}
		stack = stack[:len(stack)-1]
	}
	for !c.Done() {
		if c.Steps >= budget {
			return prof, ErrBudget
		}
		curFn, curBlk, _ := c.Frame()
		in := c.Next()
		info := c.Step()
		prof.TotalInstrs++
		if info.Branched {
			if _, nb, _ := c.Frame(); nb != nil {
				prof.BlockCount[nb]++
			}
		}
		for i := range stack {
			stack[i].lp.InstrTotal++
			stack[i].lp.curIterInstrs++
		}
		if in.Op.IsMem() {
			isWrite := in.Op == ir.OpStore
			for i := range stack {
				refRecordAccess(ring, stack[i].lp, stack[i].iter, in.UID, info.Addr, isWrite)
			}
		}
		switch {
		case info.Returned:
		case in.Op == ir.OpCall && in.Callee != nil:
			depth++
		case in.Op == ir.OpRet:
			depth--
			for len(stack) > 0 && stack[len(stack)-1].frameDepth > depth {
				popLoop()
			}
		case info.Branched:
			_, nb, _ := c.Frame()
			for len(stack) > 0 && stack[len(stack)-1].frameDepth == depth &&
				!stack[len(stack)-1].lp.Loop.Contains(nb) {
				popLoop()
			}
			forest := pr.Forests[curFn]
			if forest != nil {
				if l := headerOf(forest, nb); l != nil {
					top := len(stack) - 1
					if top >= 0 && stack[top].lp.Loop == l && stack[top].frameDepth == depth {
						if refIsLatch(l, curBlk) {
							endIteration(&stack[top])
							stack[top].iter++
							stack[top].lp.Iterations++
						}
					} else {
						lp := getLP(curFn, l)
						lp.Invocations++
						lp.Iterations++
						for i := range stack {
							addConflict(stack[i].lp.Loop, l)
						}
						stack = append(stack, refActiveLoop{lp: lp, frameDepth: depth})
					}
				}
			}
		}
		if info.Returned {
			prof.RetValue = info.RetValue
		}
	}
	for len(stack) > 0 {
		popLoop()
	}
	for _, lp := range prof.Loops {
		for _, st := range lp.addrState {
			if st.haveWrite {
				lp.ConsumerCounts[len(st.consumers)]++
			}
		}
		lp.addrState = nil
	}
	return prof, nil
}

func refIsLatch(l *cfg.Loop, b *ir.Block) bool {
	for _, la := range l.Latches {
		if la == b {
			return true
		}
	}
	return false
}

func refRecordAccess(ring int, lp *refLoopProfile, iter int64, uid int32, addr int64, isWrite bool) {
	st := lp.addrState[addr]
	if st == nil {
		st = &refAddrRecord{byInstr: map[int32]refAccessRecord{}}
		lp.addrState[addr] = st
	}
	for otherUID, rec := range st.byInstr {
		if rec.lastIter < iter && (rec.isWrite || isWrite) {
			lp.Deps[canonPair(otherUID, uid)]++
			lp.SharedAddrs[addr] = struct{}{}
		}
	}
	if rec, ok := st.byInstr[uid]; ok && rec.lastIter < iter && (rec.isWrite || isWrite) {
		lp.SharedAddrs[addr] = struct{}{}
	}
	st.byInstr[uid] = refAccessRecord{lastIter: iter, isWrite: isWrite}

	n := int64(ring)
	if isWrite {
		if st.haveWrite {
			lp.ConsumerCounts[len(st.consumers)]++
		}
		st.haveWrite = true
		st.writeIter = iter
		st.firstConsumed = false
		if st.consumers == nil {
			st.consumers = map[int]struct{}{}
		} else {
			clear(st.consumers)
		}
	} else if st.haveWrite && iter > st.writeIter {
		st.consumers[int(iter%n)] = struct{}{}
		if !st.firstConsumed {
			st.firstConsumed = true
			d := (iter - st.writeIter) % n
			if d > n/2 {
				d = n - d
			}
			if d == 0 {
				d = n / 2
			}
			lp.HopDist[d]++
		}
	}
}

// flatten restates a reference profile in the positional form Run
// produces, so the two compare with reflect.DeepEqual.
func (rp *refProfile) flatten(pr *Profiler, entry *ir.Function, args []int64) *Profile {
	ring, budget := profileDefaults(pr.RingSize, pr.Budget)
	out := &Profile{
		Loops:       map[LoopKey]*LoopProfile{},
		Conflicts:   map[LoopPair]bool{},
		BlockCount:  make([][]int64, len(pr.Prog.Funcs)),
		TotalInstrs: rp.TotalInstrs,
		RetValue:    rp.RetValue,
		Entry:       -1,
		Args:        slices.Clone(args),
		RingSize:    ring,
		Budget:      budget,
		UIDs:        pr.Prog.NextUID,
	}
	keys := map[*cfg.Loop]LoopKey{}
	for fi, f := range pr.Prog.Funcs {
		if f == entry {
			out.Entry = fi
		}
		out.BlockCount[fi] = make([]int64, len(f.Blocks))
		for _, b := range f.Blocks {
			out.BlockCount[fi][b.Index] = rp.BlockCount[b]
		}
		if forest := pr.Forests[f]; forest != nil {
			for _, l := range forest.Loops {
				keys[l] = LoopKey{Fn: int32(fi), Header: int32(l.Header.Index)}
			}
		}
	}
	for l, rlp := range rp.Loops {
		lp := &LoopProfile{
			Key: keys[l], ID: l.ID,
			Invocations: rlp.Invocations, Iterations: rlp.Iterations, InstrTotal: rlp.InstrTotal,
			IterLens: rlp.IterLens, TripCounts: rlp.TripCounts,
			Deps: rlp.Deps, SharedAddrs: rlp.SharedAddrs, HopDist: rlp.HopDist,
			ConsumerCounts: make([]int64, ring+1),
		}
		for k, v := range rlp.ConsumerCounts {
			lp.ConsumerCounts[k] = v
		}
		out.Loops[lp.Key] = lp
	}
	for a, m := range rp.Conflicts {
		for b := range m {
			out.Conflicts[canonLoops(keys[a], keys[b])] = true
		}
	}
	return out
}

// profilerInput is one training run: a program with its loop forests.
type profilerInput struct {
	name    string
	prog    *ir.Program
	entry   *ir.Function
	forests map[*ir.Function]*cfg.Forest
	args    []int64
}

func newProfilerInput(name string, p *ir.Program, entry *ir.Function, args []int64) profilerInput {
	p.AssignUIDs()
	forests := map[*ir.Function]*cfg.Forest{}
	for _, f := range p.Funcs {
		forests[f] = cfg.FindLoops(cfg.New(f))
	}
	return profilerInput{name, p, entry, forests, args}
}

// registeredInputs returns the training runs of every SPEC analogue and
// every scenario of the default packs.
func registeredInputs(t testing.TB) []profilerInput {
	for _, f := range irgen.Families() {
		pack, err := scenarios.DefaultPack(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := scenarios.RegisterPack(pack); err != nil {
			t.Fatal(err)
		}
	}
	var out []profilerInput
	for _, name := range workloads.Registered() {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, newProfilerInput(name, w.Prog, w.Entry, w.TrainArgs))
	}
	return out
}

// corpusInputs returns the difftest corpus programs.
func corpusInputs(t testing.TB) []profilerInput {
	files, err := filepath.Glob(filepath.Join("..", "difftest", "testdata", "*.hir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("difftest corpus: %v (%d files)", err, len(files))
	}
	var out []profilerInput
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var args []int64
		for _, line := range strings.Split(string(src), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "# args:"); ok {
				for _, f := range strings.Fields(rest) {
					v, err := strconv.ParseInt(f, 10, 64)
					if err != nil {
						t.Fatalf("%s: %v", path, err)
					}
					args = append(args, v)
				}
				break
			}
		}
		p, entry, err := ir.ParseText(string(src), irgen.Externs)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, newProfilerInput(filepath.Base(path), p, entry, args))
	}
	return out
}

// TestProfilerMatchesMapModel runs the flat profiler and the map-based
// reference over every SPEC analogue, every scenario, the difftest
// corpus and 200 generated programs, on rings of 2, 16 and 100 cores
// (100 needs two consumer-bitset words), and requires every field of
// the two profiles to agree.
func TestProfilerMatchesMapModel(t *testing.T) {
	inputs := append(registeredInputs(t), corpusInputs(t)...)
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for seed := range seeds {
		p, entry, args := irgen.Generate(uint64(seed))
		inputs = append(inputs, newProfilerInput(fmt.Sprintf("irgen-%d", seed), p, entry, args))
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			for _, ring := range []int{2, 16, 100} {
				pr := &Profiler{Prog: in.prog, Forests: in.forests, RingSize: ring, Budget: 1 << 24}
				ref, refErr := refRun(pr, in.entry, in.args...)
				got, err := pr.Run(in.entry, in.args...)
				if err != refErr {
					t.Fatalf("ring %d: err %v, reference %v", ring, err, refErr)
				}
				if err != nil {
					continue
				}
				want := ref.flatten(pr, in.entry, in.args)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("ring %d: flat profile differs from the map model:\n%s", ring, profileDiff(got, want))
				}
			}
		})
	}
}

// profileDiff names the first fields on which two profiles disagree.
func profileDiff(got, want *Profile) string {
	var sb strings.Builder
	g, w := reflect.ValueOf(*got), reflect.ValueOf(*want)
	for i := range g.NumField() {
		if name := g.Type().Field(i).Name; name != "Loops" && !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			fmt.Fprintf(&sb, "%s: got %v, want %v\n", name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	for k, wl := range want.Loops {
		gl := got.Loops[k]
		if gl == nil {
			fmt.Fprintf(&sb, "loop %v missing\n", k)
			continue
		}
		gv, wv := reflect.ValueOf(*gl), reflect.ValueOf(*wl)
		for i := range gv.NumField() {
			if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
				fmt.Fprintf(&sb, "loop %v %s: got %v, want %v\n", k, gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
			}
		}
	}
	for k := range got.Loops {
		if want.Loops[k] == nil {
			fmt.Fprintf(&sb, "loop %v not in the reference\n", k)
		}
	}
	return sb.String()
}

// specInputs returns the training runs of the ten SPEC analogues.
func specInputs(tb testing.TB) []profilerInput {
	var out []profilerInput
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, newProfilerInput(name, w.Prog, w.Entry, w.TrainArgs))
	}
	return out
}

// BenchmarkProfilerSPEC profiles the ten SPEC training runs on a 16-core
// ring: the work HCC does once per (workload, core count).
func BenchmarkProfilerSPEC(b *testing.B) {
	inputs := specInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, in := range inputs {
			pr := &Profiler{Prog: in.prog, Forests: in.forests, RingSize: 16}
			if _, err := pr.Run(in.entry, in.args...); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestProfilerAllocs bounds the allocations of the ten SPEC training
// runs. The map-based profiler made 222,851; the flat one must stay at
// a tenth of that or less.
func TestProfilerAllocs(t *testing.T) {
	inputs := specInputs(t)
	allocs := testing.AllocsPerRun(1, func() {
		for _, in := range inputs {
			pr := &Profiler{Prog: in.prog, Forests: in.forests, RingSize: 16}
			if _, err := pr.Run(in.entry, in.args...); err != nil {
				t.Fatal(err)
			}
		}
	})
	const budget = 222851 / 10
	if allocs > budget {
		t.Errorf("10 SPEC training profiles made %.0f allocations, budget %d", allocs, budget)
	}
}

// TestProfileMatches pins the training-identity check: a profile
// matches the inputs it was trained on, normalizes default ring size
// and budget, and refuses any other ring, budget, args, entry or shape.
func TestProfileMatches(t *testing.T) {
	p, f, forest := buildRecurrence(t)
	pr := &Profiler{Prog: p, Forests: map[*ir.Function]*cfg.Forest{f: forest}}
	prof, err := pr.Run(f, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Matches(p, f, 16, 1<<32, []int64{40}); err != nil {
		t.Errorf("trained inputs refused: %v", err)
	}
	if err := prof.Matches(p, f, 0, 0, []int64{40}); err != nil {
		t.Errorf("default ring and budget refused: %v", err)
	}
	mismatches := map[string]error{
		"ring":   prof.Matches(p, f, 8, 0, []int64{40}),
		"budget": prof.Matches(p, f, 16, 100, []int64{40}),
		"args":   prof.Matches(p, f, 16, 0, []int64{41}),
	}
	other := p.NewFunction("other", 0)
	ir.NewBuilder(p, other).Ret(ir.C(0))
	p.AssignUIDs()
	mismatches["shape"] = prof.Matches(p, f, 16, 0, []int64{40})
	for name, err := range mismatches {
		if err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
}
