package interp

import (
	"fmt"
	"slices"
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

// LoopKey names a loop by position rather than by pointer: Fn is the
// function's index in Program.Funcs and Header the header block's
// Block.Index. Every block constructor numbers blocks positionally
// (ir.Program.Verify checks it) and AssignUIDs is deterministic, so the
// key names the same loop in every build of the same program content,
// and one profile serves them all.
type LoopKey struct {
	Fn, Header int32
}

func (k LoopKey) less(o LoopKey) bool {
	if k.Fn != o.Fn {
		return k.Fn < o.Fn
	}
	return k.Header < o.Header
}

// LoopPair is an unordered pair of loops, stored with A <= B.
type LoopPair struct {
	A, B LoopKey
}

func canonLoops(a, b LoopKey) LoopPair {
	if b.less(a) {
		a, b = b, a
	}
	return LoopPair{A: a, B: b}
}

// LoopProfile aggregates the dynamic behaviour of one loop over a run.
// Like the Profile holding it, it is immutable once Run returns.
type LoopProfile struct {
	Key LoopKey
	// ID is the loop's cfg.Loop.ID in its function's forest (the loop
	// selector breaks coverage ties on it).
	ID int

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
	// (index 0 means consumed by no other core before being overwritten);
	// it has one entry per possible count, RingSize+1 in all.
	ConsumerCounts []int64
}

const maxSamples = 1 << 16

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

// Profile is the result of a profiling run. It holds no pointers into
// the program it was trained on — loops and blocks are named by position
// — and nothing mutates it after Run returns, so one Profile is safely
// shared by every compilation of the same input, concurrently.
type Profile struct {
	// Loops maps every loop that was entered to its profile.
	Loops map[LoopKey]*LoopProfile
	// Conflicts records loops observed active at the same time (one nested
	// dynamically inside the other, possibly across calls). Selecting two
	// conflicting loops would double-count coverage and require nested
	// parallelism, so the selector picks at most one of each pair.
	Conflicts map[LoopPair]bool
	// BlockCount[f][b] records how many times block b of function f
	// (positions in Program.Funcs and Function.Blocks) was entered — the
	// loop selector weighs sequential-segment spans by execution
	// frequency (an inner loop inside a segment multiplies its cost).
	BlockCount [][]int64
	// TotalInstrs is the dynamic instruction count of the whole run.
	TotalInstrs int64
	RetValue    int64

	// The training inputs, which Matches checks a compilation against:
	// the entry function's position, the arguments, the ring size, the
	// effective instruction budget and the program's UID count (the
	// block counts above record the rest of its shape).
	Entry    int
	Args     []int64
	RingSize int
	Budget   int64
	UIDs     int32
}

// Conflict reports whether two loops were ever active simultaneously.
func (p *Profile) Conflict(a, b LoopKey) bool {
	return p.Conflicts[canonLoops(a, b)]
}

// LoopsBy returns profiles sorted by descending coverage. Ties break on
// the loop's ID within its function, then on the function's position,
// so the order is total.
func (p *Profile) LoopsBy() []*LoopProfile {
	out := make([]*LoopProfile, 0, len(p.Loops))
	for _, lp := range p.Loops {
		out = append(out, lp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].InstrTotal != out[j].InstrTotal {
			return out[i].InstrTotal > out[j].InstrTotal
		}
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Key.Fn < out[j].Key.Fn
	})
	return out
}

// Matches reports, as an error, whether p was trained on a program of
// prog's shape entered at entry, on a ring of ringSize cores, under
// budget and over args. Ring size and budget normalize the way Run's
// defaults do. prog must have had its UIDs assigned.
func (p *Profile) Matches(prog *ir.Program, entry *ir.Function, ringSize int, budget int64, args []int64) error {
	ringSize, budget = profileDefaults(ringSize, budget)
	switch {
	case p.RingSize != ringSize:
		return fmt.Errorf("interp: profile trained on a %d-core ring, want %d", p.RingSize, ringSize)
	case p.Budget != budget:
		return fmt.Errorf("interp: profile trained under budget %d, want %d", p.Budget, budget)
	case !slices.Equal(p.Args, args):
		return fmt.Errorf("interp: profile trained on args %v, want %v", p.Args, args)
	case len(p.BlockCount) != len(prog.Funcs) || p.UIDs != prog.NextUID:
		return fmt.Errorf("interp: profile trained on a program of %d functions and %d instructions, not %d and %d",
			len(p.BlockCount), p.UIDs, len(prog.Funcs), prog.NextUID)
	case p.Entry < 0 || prog.Funcs[p.Entry] != entry:
		return fmt.Errorf("interp: profile trained on entry function #%d, not %s", p.Entry, entry.Name)
	}
	for i, f := range prog.Funcs {
		if len(p.BlockCount[i]) != len(f.Blocks) {
			return fmt.Errorf("interp: profile trained on %d blocks in %s, not %d", len(p.BlockCount[i]), f.Name, len(f.Blocks))
		}
	}
	return nil
}

func profileDefaults(ringSize int, budget int64) (int, int64) {
	if ringSize <= 0 {
		ringSize = 16
	}
	if budget <= 0 {
		budget = 1 << 32
	}
	return ringSize, budget
}

// Profiler drives an instrumented sequential execution.
type Profiler struct {
	Prog *ir.Program
	// Forests supplies loop structure per function; functions absent from
	// the map are executed without loop instrumentation.
	Forests map[*ir.Function]*cfg.Forest
	// RingSize is the core count used for hop-distance statistics
	// (16 in the paper's Figure 4; 0 means 16).
	RingSize int
	// Budget bounds the instruction count (0 = default).
	Budget int64
}

// access is the last access one static instruction made to one address
// within one loop, for the dependence oracle.
type access struct {
	lastIter int64
	uid      int32
	isWrite  bool
}

// addrRecord is a loop's per-address state. Most addresses are touched
// by one or two static instructions, which live inline; the rest spill
// to a slice of their own in loopState.spills. The record holds no
// pointers, so the loop's record table is cheap to grow, and nothing
// points into it: a slice aliasing a record's inline array would go
// stale the moment the table reallocated.
type addrRecord struct {
	inline [2]access
	n      int32 // accesses in use: inline first, then spill
	spill  int32 // 1 + index into loopState.spills, or 0
	// The current live write, for hop/consumer statistics; the consumer
	// cores themselves are a bitset in loopState.consumers.
	writeIter     int64
	nConsumers    int32
	haveWrite     bool
	firstConsumed bool
	// shared records that the address is already in SharedAddrs.
	shared bool
}

// loopState is the profiler's scratch state for one loop of the
// forests. None of it survives Run: the Profile keeps only lp.
type loopState struct {
	key   LoopKey
	id    int
	body  []bool // body[b] reports whether block b is in the loop
	latch []bool // latch[b] reports whether block b is a latch
	lp    *LoopProfile
	// curIterInstrs counts the instructions of the iteration in progress.
	curIterInstrs int64

	// index[addr-lo] is 1 + the position of addr's record in recs, or 0
	// for an address the loop has not touched. It grows the way
	// Memory's words do.
	index []int32
	lo    int64
	recs  []addrRecord
	// spills holds the accesses of records touched by more than two
	// static instructions, beyond the first two.
	spills [][]access
	// consumers holds each record's consumer-core bitset, words per
	// record, at the record's position times words.
	consumers []uint64
}

// activeLoop is one entry of the dynamic loop stack.
type activeLoop struct {
	ls         *loopState
	slot       int
	iter       int64
	frameDepth int
}

// Run executes fn(args...) and returns the collected profile.
func (pr *Profiler) Run(fn *ir.Function, args ...int64) (*Profile, error) {
	ring, budget := profileDefaults(pr.RingSize, pr.Budget)
	words := (ring + 63) / 64

	fnIndex := make(map[*ir.Function]int32, len(pr.Prog.Funcs))
	prof := &Profile{
		Loops:      map[LoopKey]*LoopProfile{},
		Conflicts:  map[LoopPair]bool{},
		BlockCount: make([][]int64, len(pr.Prog.Funcs)),
		Entry:      -1,
		Args:       slices.Clone(args),
		RingSize:   ring,
		Budget:     budget,
		UIDs:       pr.Prog.NextUID,
	}
	// headers[f][b] is 1 + the slot of the loop headed by block b of
	// function f, or 0; nil for functions without a forest.
	headers := make([][]int32, len(pr.Prog.Funcs))
	var states []loopState
	for fi, f := range pr.Prog.Funcs {
		fnIndex[f] = int32(fi)
		if f == fn {
			prof.Entry = fi
		}
		prof.BlockCount[fi] = make([]int64, len(f.Blocks))
		forest := pr.Forests[f]
		if forest == nil {
			continue
		}
		slotOf := map[*cfg.Loop]int32{}
		for _, l := range forest.Loops {
			slotOf[l] = int32(len(states))
			ls := loopState{
				key:   LoopKey{Fn: int32(fi), Header: int32(l.Header.Index)},
				id:    l.ID,
				body:  make([]bool, len(f.Blocks)),
				latch: make([]bool, len(f.Blocks)),
			}
			for _, b := range f.Blocks {
				ls.body[b.Index] = l.Contains(b)
			}
			for _, b := range l.Latches {
				ls.latch[b.Index] = true
			}
			states = append(states, ls)
		}
		headers[fi] = make([]int32, len(f.Blocks))
		for _, b := range f.Blocks {
			if l := headerOf(forest, b); l != nil {
				headers[fi][b.Index] = slotOf[l] + 1
			}
		}
	}
	// conflicts is a len(states)-square bit matrix of loops seen active
	// together.
	cwords := (len(states) + 63) / 64
	conflicts := make([]uint64, len(states)*cwords)
	addConflict := func(a, b int) {
		conflicts[a*cwords+b/64] |= 1 << (b % 64)
		conflicts[b*cwords+a/64] |= 1 << (a % 64)
	}

	mem := NewMemory(pr.Prog)
	c := NewContext(pr.Prog, mem, fn, args...)
	if _, blk, _ := c.Frame(); blk != nil {
		prof.BlockCount[fnIndex[fn]][blk.Index]++
	}

	var stack []activeLoop
	depth := 1 // frame depth of the outermost function
	lastFn, lastIdx := fn, fnIndex[fn]

	// endIteration closes the loop's current iteration sample.
	endIteration := func(ls *loopState) {
		if len(ls.lp.IterLens) < maxSamples {
			ls.lp.IterLens = append(ls.lp.IterLens, int32(ls.curIterInstrs))
		}
		ls.curIterInstrs = 0
	}
	popLoop := func() {
		al := &stack[len(stack)-1]
		endIteration(al.ls)
		if len(al.ls.lp.TripCounts) < maxSamples {
			al.ls.lp.TripCounts = append(al.ls.lp.TripCounts, int32(al.iter+1))
		}
		stack = stack[:len(stack)-1]
	}

	for !c.Done() {
		if c.Steps >= budget {
			return nil, ErrBudget
		}
		_, curBlk, _ := c.Frame()
		in := c.Next()

		info := c.Step()
		prof.TotalInstrs++
		var nb *ir.Block
		if info.Branched {
			var nf *ir.Function
			nf, nb, _ = c.Frame()
			if nf != lastFn {
				lastFn, lastIdx = nf, fnIndex[nf]
			}
			prof.BlockCount[lastIdx][nb.Index]++
		}
		for i := range stack {
			stack[i].ls.lp.InstrTotal++
			stack[i].ls.curIterInstrs++
		}

		// Memory dependence oracle for all active loops.
		if in.Op.IsMem() {
			isWrite := in.Op == ir.OpStore
			for i := range stack {
				stack[i].ls.recordAccess(stack[i].iter, in.UID, info.Addr, isWrite, ring, words)
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
			// Pop loops in this frame whose body we just left.
			for len(stack) > 0 && stack[len(stack)-1].frameDepth == depth &&
				!stack[len(stack)-1].ls.body[nb.Index] {
				popLoop()
			}
			hdr := headers[lastIdx]
			if hdr == nil || hdr[nb.Index] == 0 {
				break
			}
			slot := int(hdr[nb.Index] - 1)
			ls := &states[slot]
			if top := len(stack) - 1; top >= 0 && stack[top].slot == slot && stack[top].frameDepth == depth {
				// Back edge: next iteration.
				if ls.latch[curBlk.Index] {
					endIteration(ls)
					stack[top].iter++
					ls.lp.Iterations++
				}
				break
			}
			if ls.lp == nil {
				ls.lp = &LoopProfile{
					Key: ls.key, ID: ls.id,
					Deps:           map[DepPair]int64{},
					SharedAddrs:    map[int64]struct{}{},
					HopDist:        make([]int64, ring/2+1),
					ConsumerCounts: make([]int64, ring+1),
				}
				prof.Loops[ls.key] = ls.lp
			}
			ls.lp.Invocations++
			ls.lp.Iterations++
			for i := range stack {
				addConflict(stack[i].slot, slot)
			}
			stack = append(stack, activeLoop{ls: ls, slot: slot, frameDepth: depth})
		}
		if info.Returned {
			prof.RetValue = info.RetValue
		}
	}
	for len(stack) > 0 {
		popLoop()
	}
	for a := range states {
		if states[a].lp == nil {
			continue
		}
		// Finalize consumer counts for live writes.
		for i := range states[a].recs {
			if r := &states[a].recs[i]; r.haveWrite {
				states[a].lp.ConsumerCounts[r.nConsumers]++
			}
		}
		for b := a; b < len(states); b++ {
			if conflicts[a*cwords+b/64]&(1<<(b%64)) != 0 {
				prof.Conflicts[canonLoops(states[a].key, states[b].key)] = true
			}
		}
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

// record returns the position of addr's record in ls.recs, creating
// the record on the address's first access.
func (ls *loopState) record(addr int64, words int) int {
	if i := uint64(addr - ls.lo); i < uint64(len(ls.index)) {
		if p := ls.index[i]; p != 0 {
			return int(p - 1)
		}
	} else {
		ls.index, ls.lo = growExtent(ls.index, ls.lo, addr)
	}
	ls.recs = append(ls.recs, addrRecord{})
	for range words {
		ls.consumers = append(ls.consumers, 0)
	}
	ls.index[addr-ls.lo] = int32(len(ls.recs))
	return len(ls.recs) - 1
}

func (ls *loopState) recordAccess(iter int64, uid int32, addr int64, isWrite bool, ring, words int) {
	ri := ls.record(addr, words)
	r := &ls.recs[ri]
	lp := ls.lp
	// Dependence oracle: any earlier-iteration access by another static
	// instruction (or the same one, e.g. a recurrent store) where at
	// least one side writes.
	dependent := false
	mine := -1
	for j := int32(0); j < r.n; j++ {
		var a *access
		if j < 2 {
			a = &r.inline[j]
		} else {
			a = &ls.spills[r.spill-1][j-2]
		}
		if a.lastIter < iter && (a.isWrite || isWrite) {
			lp.Deps[canonPair(a.uid, uid)]++
			dependent = true
		}
		if a.uid == uid {
			mine = int(j)
		}
	}
	if dependent && !r.shared {
		r.shared = true
		lp.SharedAddrs[addr] = struct{}{}
	}
	now := access{lastIter: iter, uid: uid, isWrite: isWrite}
	switch {
	case mine >= 2:
		ls.spills[r.spill-1][mine-2] = now
	case mine >= 0:
		r.inline[mine] = now
	case r.n < 2:
		r.inline[r.n] = now
		r.n++
	case r.spill == 0:
		ls.spills = append(ls.spills, []access{now})
		r.spill = int32(len(ls.spills))
		r.n++
	default:
		ls.spills[r.spill-1] = append(ls.spills[r.spill-1], now)
		r.n++
	}

	// Hop-distance / consumer statistics.
	n := int64(ring)
	cons := ls.consumers[ri*words : (ri+1)*words]
	if isWrite {
		if r.haveWrite {
			lp.ConsumerCounts[r.nConsumers]++
		}
		r.haveWrite = true
		r.writeIter = iter
		r.firstConsumed = false
		if r.nConsumers != 0 {
			clear(cons)
			r.nConsumers = 0
		}
	} else if r.haveWrite && iter > r.writeIter {
		core := iter % n
		if w, bit := &cons[core/64], uint64(1)<<(core%64); *w&bit == 0 {
			*w |= bit
			r.nConsumers++
		}
		if !r.firstConsumed {
			r.firstConsumed = true
			d := (iter - r.writeIter) % n
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
