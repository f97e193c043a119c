package interp

import (
	"sort"

	"helixrc/internal/cfg"
	"helixrc/internal/ir"
)

// DepPair identifies a loop-carried memory dependence between two static
// instructions (by UID). The pair is stored with From <= To so that the
// unordered pair has one canonical form.
type DepPair struct {
	From, To int32
}

func canonPair(a, b int32) DepPair {
	if a > b {
		a, b = b, a
	}
	return DepPair{From: a, To: b}
}

// LoopProfile aggregates the dynamic behaviour of one loop over a run.
type LoopProfile struct {
	Fn   *ir.Function
	Loop *cfg.Loop

	Invocations int64
	Iterations  int64
	// InstrTotal counts every instruction executed while the loop was
	// active, including callees and inner loops (this is the loop's
	// dynamic coverage numerator).
	InstrTotal int64
	// IterLens samples per-iteration instruction counts (capped).
	IterLens []int32
	// TripCounts samples iterations per invocation (capped).
	TripCounts []int32
	// Deps maps each observed actual loop-carried memory dependence to the
	// number of times it occurred.
	Deps map[DepPair]int64
	// SharedAddrs is the set of addresses with cross-iteration traffic.
	SharedAddrs map[int64]struct{}
	// HopDist[d] counts shared-value first-consumptions whose undirected
	// producer→consumer core distance is d on the profiling ring.
	HopDist []int64
	// ConsumerCounts[k] counts shared stores consumed by k distinct cores
	// (index 0 means consumed by no other core before being overwritten).
	ConsumerCounts map[int]int64

	// internal per-address tracking state
	addrState map[int64]*addrRecord
	// iteration-in-progress state
	curIterInstrs int64
	curInvocIters int64
	frameDepth    int
}

const maxSamples = 1 << 16

type accessRecord struct {
	lastIter int64
	isWrite  bool
}

type addrRecord struct {
	// byInstr tracks the last iteration each static instruction touched
	// this address, for the dependence oracle.
	byInstr map[int32]accessRecord
	// Current live write, for hop/consumer statistics.
	writeIter     int64
	haveWrite     bool
	firstConsumed bool
	consumers     map[int]struct{}
}

// Coverage returns this loop's fraction of the program's dynamic
// instructions.
func (lp *LoopProfile) Coverage(programInstrs int64) float64 {
	if programInstrs == 0 {
		return 0
	}
	return float64(lp.InstrTotal) / float64(programInstrs)
}

// AvgIterLen returns the mean instructions per iteration.
func (lp *LoopProfile) AvgIterLen() float64 {
	if lp.Iterations == 0 {
		return 0
	}
	// InstrTotal includes partial tails; the sample mean is accurate
	// enough and avoids double counting across nested loops.
	var sum int64
	for _, v := range lp.IterLens {
		sum += int64(v)
	}
	if len(lp.IterLens) == 0 {
		return 0
	}
	return float64(sum) / float64(len(lp.IterLens))
}

// AvgTripCount returns the mean iterations per invocation.
func (lp *LoopProfile) AvgTripCount() float64 {
	if len(lp.TripCounts) == 0 {
		return 0
	}
	var sum int64
	for _, v := range lp.TripCounts {
		sum += int64(v)
	}
	return float64(sum) / float64(len(lp.TripCounts))
}

// Profile is the result of a profiling run.
type Profile struct {
	// Loops maps loop headers to their profiles, across all functions.
	Loops map[*cfg.Loop]*LoopProfile
	// Conflicts records loops observed active at the same time (one nested
	// dynamically inside the other, possibly across calls). Selecting two
	// conflicting loops would double-count coverage and require nested
	// parallelism, so the selector picks at most one of each pair.
	Conflicts map[*cfg.Loop]map[*cfg.Loop]bool
	// BlockCount records how many times each basic block was entered —
	// the loop selector weighs sequential-segment spans by execution
	// frequency (an inner loop inside a segment multiplies its cost).
	BlockCount map[*ir.Block]int64
	// TotalInstrs is the dynamic instruction count of the whole run.
	TotalInstrs int64
	RetValue    int64
}

// Conflict reports whether two loops were ever active simultaneously.
func (p *Profile) Conflict(a, b *cfg.Loop) bool {
	return p.Conflicts[a][b]
}

// LoopsBy returns profiles sorted by descending coverage.
func (p *Profile) LoopsBy() []*LoopProfile {
	out := make([]*LoopProfile, 0, len(p.Loops))
	for _, lp := range p.Loops {
		out = append(out, lp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].InstrTotal != out[j].InstrTotal {
			return out[i].InstrTotal > out[j].InstrTotal
		}
		return out[i].Loop.ID < out[j].Loop.ID
	})
	return out
}

// Profiler drives an instrumented sequential execution.
type Profiler struct {
	Prog *ir.Program
	// Forests supplies loop structure per function; functions absent from
	// the map are executed without loop instrumentation.
	Forests map[*ir.Function]*cfg.Forest
	// RingSize is the core count used for hop-distance statistics
	// (16 in the paper's Figure 4).
	RingSize int
	// Budget bounds the instruction count (0 = default).
	Budget int64
}

type activeLoop struct {
	lp         *LoopProfile
	iter       int64
	frameDepth int
}

// Run executes fn(args...) and returns the collected profile.
func (pr *Profiler) Run(fn *ir.Function, args ...int64) (*Profile, error) {
	if pr.RingSize <= 0 {
		pr.RingSize = 16
	}
	budget := pr.Budget
	if budget <= 0 {
		budget = 1 << 32
	}
	mem := NewMemory(pr.Prog)
	c := NewContext(pr.Prog, mem, fn, args...)
	prof := &Profile{
		Loops:      map[*cfg.Loop]*LoopProfile{},
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

	var stack []activeLoop
	depth := 1 // frame depth of the outermost function

	getLP := func(f *ir.Function, l *cfg.Loop) *LoopProfile {
		lp := prof.Loops[l]
		if lp == nil {
			lp = &LoopProfile{
				Fn: f, Loop: l,
				Deps:           map[DepPair]int64{},
				SharedAddrs:    map[int64]struct{}{},
				HopDist:        make([]int64, pr.RingSize/2+1),
				ConsumerCounts: map[int]int64{},
				addrState:      map[int64]*addrRecord{},
			}
			prof.Loops[l] = lp
		}
		return lp
	}

	// endIteration closes the loop's current iteration sample.
	endIteration := func(al *activeLoop) {
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

		// Memory dependence oracle for all active loops.
		if in.Op.IsMem() {
			isWrite := in.Op == ir.OpStore
			for i := range stack {
				pr.recordAccess(stack[i].lp, stack[i].iter, in.UID, info.Addr, isWrite)
			}
		}

		// Loop transitions happen only on intra-frame branches.
		switch {
		case info.Returned:
			// done below via c.Done
		case in.Op == ir.OpCall && in.Callee != nil:
			depth++
		case in.Op == ir.OpRet:
			depth--
			// Pop loops belonging to frames that no longer exist.
			for len(stack) > 0 && stack[len(stack)-1].frameDepth > depth {
				popLoop()
			}
		case info.Branched:
			_, nb, _ := c.Frame()
			// Pop loops in this frame whose body we just left.
			for len(stack) > 0 && stack[len(stack)-1].frameDepth == depth &&
				!stack[len(stack)-1].lp.Loop.Contains(nb) {
				popLoop()
			}
			forest := pr.Forests[curFn]
			if forest != nil {
				if l := headerOf(forest, nb); l != nil {
					top := -1
					if len(stack) > 0 {
						top = len(stack) - 1
					}
					if top >= 0 && stack[top].lp.Loop == l && stack[top].frameDepth == depth {
						// Back edge: next iteration.
						if isLatch(l, curBlk) {
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
						stack = append(stack, activeLoop{lp: lp, frameDepth: depth})
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
	// Finalize consumer counts for live writes.
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

func headerOf(f *cfg.Forest, b *ir.Block) *cfg.Loop {
	l := f.InnermostLoop(b)
	if l != nil && l.Header == b {
		return l
	}
	// b may be the header of an outer loop that also contains it.
	for ; l != nil; l = l.Parent {
		if l.Header == b {
			return l
		}
	}
	return nil
}

func isLatch(l *cfg.Loop, b *ir.Block) bool {
	for _, la := range l.Latches {
		if la == b {
			return true
		}
	}
	return false
}

func (pr *Profiler) recordAccess(lp *LoopProfile, iter int64, uid int32, addr int64, isWrite bool) {
	st := lp.addrState[addr]
	if st == nil {
		st = &addrRecord{byInstr: map[int32]accessRecord{}}
		lp.addrState[addr] = st
	}
	// Dependence oracle: any earlier-iteration access by another static
	// instruction (or the same one) where at least one side writes.
	for otherUID, rec := range st.byInstr {
		if rec.lastIter < iter && (rec.isWrite || isWrite) {
			lp.Deps[canonPair(otherUID, uid)]++
			lp.SharedAddrs[addr] = struct{}{}
		}
	}
	// Same instruction across iterations (e.g. a recurrent store).
	if rec, ok := st.byInstr[uid]; ok && rec.lastIter < iter && (rec.isWrite || isWrite) {
		lp.SharedAddrs[addr] = struct{}{}
	}
	st.byInstr[uid] = accessRecord{lastIter: iter, isWrite: isWrite}

	// Hop-distance / consumer statistics.
	n := int64(pr.RingSize)
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
		core := int(iter % n)
		st.consumers[core] = struct{}{}
		if !st.firstConsumed {
			st.firstConsumed = true
			d := (iter - st.writeIter) % n
			if d > n/2 {
				d = n - d
			}
			if d == 0 {
				d = n / 2 // a full lap maps to the farthest hop bucket
			}
			lp.HopDist[d]++
		}
	}
}
