// Package ringcache models the HELIX-RC ring cache (Section 5 of the
// paper): a unidirectional ring of per-core nodes, each with a small
// set-associative cache array with one-word lines, a signal buffer, and
// credit-based links. Data and signals are circulated proactively — a
// store or signal is injected once and propagates node to node without
// interrupting any core; consumers pay only the residual latency between
// injection-plus-propagation and their own demand time.
//
// The model is timestamp-based rather than cycle-stepped: because the
// HELIX execution model only sends values forward in iteration order, the
// simulator can resolve every arrival time in closed form. Bandwidth
// limits are modelled with slot allocators per traffic class.
package ringcache

import "helixrc/internal/mem"

// Config sizes the ring cache. The paper's default: 1KB 8-way array per
// node, one-word data bandwidth, five-signal bandwidth, single-cycle
// adjacent-node latency, two-cycle core-to-node injection latency.
type Config struct {
	Nodes int
	// ArrayBytes is the per-node cache array size; 0 means unbounded.
	ArrayBytes int
	Assoc      int
	// LinkLatency is the adjacent-node hop latency in cycles.
	LinkLatency int
	// DataBandwidth is words per cycle per link (0 = unbounded).
	DataBandwidth int
	// SignalBandwidth is signals per cycle per link (0 = unbounded).
	SignalBandwidth int
	// InjectLatency is the core-to-node injection latency.
	InjectLatency int
	// OwnerL1Latency is the cost of an owner node's L1 access on a ring
	// miss or eviction.
	OwnerL1Latency int
}

// DefaultConfig returns the paper's default ring cache.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:           nodes,
		ArrayBytes:      1 << 10,
		Assoc:           8,
		LinkLatency:     1,
		DataBandwidth:   1,
		SignalBandwidth: 5,
		InjectLatency:   2,
		OwnerL1Latency:  3,
	}
}

// Stats counts ring cache events.
type Stats struct {
	Stores       int64
	Loads        int64
	LoadHits     int64
	LoadMisses   int64
	Evictions    int64
	Signals      int64
	StallCycles  int64 // data stalls observed by consumers
	SignalStalls int64
}

// slotAlloc serializes events through a bandwidth-limited resource: at
// most `perCycle` events share one cycle.
type slotAlloc struct {
	perCycle int
	lastTime int64
	used     int
}

func (s *slotAlloc) take(t int64) int64 {
	if s.perCycle <= 0 {
		return t // unbounded
	}
	if t > s.lastTime {
		s.lastTime = t
		s.used = 1
		return t
	}
	if s.used < s.perCycle {
		s.used++
		return s.lastTime
	}
	s.lastTime++
	s.used = 1
	return s.lastTime
}

type valueState struct {
	// sentAt is when the producing core injected the value; from is the
	// producing node.
	sentAt int64
	from   int
}

// Ring is the ring cache state for one parallel loop execution.
type Ring struct {
	Cfg   Config
	Stats Stats

	arrays []*mem.Cache // per-node arrays (nil when unbounded)
	// ready[addr] is the latest injected value's timing for each address.
	ready map[int64]valueState
	// dataSlots serializes value circulation (the paper shows one write
	// port / one word per cycle suffices).
	dataSlots slotAlloc
	sigSlots  slotAlloc
	// sigSent[seg][from] is the prefix-max injection completion time of
	// signals sent by node `from` for segment seg.
	sigSent [][]int64
	// sigCount[seg][from] counts signals sent (for sanity checks).
	sigCount [][]int64
	dirty    map[int64]bool
	// seen tracks which nodes have a copy when arrays are unbounded: a
	// presence bitmask of (Nodes+63)/64 words per address, word w of
	// address a stored under seenKey{a, w}.
	seen map[seenKey]uint64
}

// seenKey names one 64-node word of an address's presence bitmask.
type seenKey struct {
	addr int64
	word int
}

// New builds a ring for a loop with numSegs segments.
func New(cfg Config, numSegs int) *Ring {
	r := &Ring{
		Cfg:       cfg,
		ready:     map[int64]valueState{},
		dataSlots: slotAlloc{perCycle: cfg.DataBandwidth},
		sigSlots:  slotAlloc{perCycle: cfg.SignalBandwidth},
		dirty:     map[int64]bool{},
		seen:      map[seenKey]uint64{},
	}
	if cfg.ArrayBytes > 0 {
		for i := 0; i < cfg.Nodes; i++ {
			r.arrays = append(r.arrays, mem.NewCache(mem.CacheConfig{
				SizeBytes: cfg.ArrayBytes, Assoc: cfg.Assoc, LineBytes: 8,
			}))
		}
	}
	r.sigSent = make([][]int64, numSegs)
	r.sigCount = make([][]int64, numSegs)
	for s := range r.sigSent {
		r.sigSent[s] = make([]int64, cfg.Nodes)
		r.sigCount[s] = make([]int64, cfg.Nodes)
		for c := range r.sigSent[s] {
			r.sigSent[s][c] = -1
		}
	}
	return r
}

// Reset restores the ring to the state New(cfg, numSegs) would produce,
// reusing the existing allocations (arrays, maps, signal matrices, and
// the rows of a larger segment count seen earlier). The simulator pools
// rings across loop invocations, which removes the dominant allocation
// in ring-cache runs.
func (r *Ring) Reset(numSegs int) {
	r.Stats = Stats{}
	clear(r.ready)
	r.dataSlots = slotAlloc{perCycle: r.Cfg.DataBandwidth}
	r.sigSlots = slotAlloc{perCycle: r.Cfg.SignalBandwidth}
	clear(r.dirty)
	clear(r.seen)
	for _, a := range r.arrays {
		a.ResetAll()
	}
	if cap(r.sigSent) < numSegs {
		sent, count := make([][]int64, numSegs), make([][]int64, numSegs)
		copy(sent, r.sigSent[:cap(r.sigSent)])
		copy(count, r.sigCount[:cap(r.sigCount)])
		r.sigSent, r.sigCount = sent, count
	}
	r.sigSent, r.sigCount = r.sigSent[:numSegs], r.sigCount[:numSegs]
	for s := range r.sigSent {
		if r.sigSent[s] == nil {
			r.sigSent[s] = make([]int64, r.Cfg.Nodes)
			r.sigCount[s] = make([]int64, r.Cfg.Nodes)
		}
	}
	for s := range r.sigSent {
		for c := range r.sigSent[s] {
			r.sigSent[s][c] = -1
			r.sigCount[s][c] = 0
		}
	}
}

// dist returns the forward (unidirectional) hop count from a to b.
func (r *Ring) dist(a, b int) int {
	d := b - a
	if d < 0 {
		d += r.Cfg.Nodes
	}
	return d
}

// Store injects a shared value at node `core` at time t. It returns the
// time the core may continue (injection is decoupled: the core does not
// wait for circulation).
func (r *Ring) Store(core int, addr int64, t int64) int64 {
	r.Stats.Stores++
	inj := r.dataSlots.take(t) + int64(r.Cfg.InjectLatency)
	prev, ok := r.ready[addr]
	if !ok || inj >= prev.sentAt {
		r.ready[addr] = valueState{sentAt: inj, from: core}
	}
	r.dirty[addr] = true
	// Value circulation: every node's array receives a copy of the pair
	// as it passes (arrival *times* are computed on demand in Load).
	if r.arrays != nil {
		for n := range r.arrays {
			if ev, dirty := r.arrays[n].Insert(addr, n == core); ev >= 0 && dirty {
				r.Stats.Evictions++
			}
		}
	} else {
		for w := 0; w < (r.Cfg.Nodes+63)/64; w++ {
			r.seen[seenKey{addr, w}] = ^uint64(0)
		}
	}
	return inj
}

// Load returns the completion time of a shared load at node `core` issued
// at time t.
func (r *Ring) Load(core int, addr int64, t int64) int64 {
	r.Stats.Loads++
	done := t + 1 // node access
	present := false
	if r.arrays != nil {
		present = r.arrays[core].Lookup(addr)
	} else {
		present = r.seen[seenKey{addr, core / 64}]&(1<<uint(core%64)) != 0
	}
	if vs, ok := r.ready[addr]; ok {
		// The value is (or will be) circulating: it reaches this node at
		// sentAt + distance hops.
		arrive := vs.sentAt + int64(r.dist(vs.from, core)*r.Cfg.LinkLatency)
		if !present {
			// Evicted locally: fetch from the owner node's array/L1.
			arrive = r.ownerFetch(core, addr, max(t, arrive))
			r.Stats.LoadMisses++
		} else {
			r.Stats.LoadHits++
		}
		if arrive > done {
			r.Stats.StallCycles += arrive - done
			done = arrive
		}
	} else if present {
		// Previously fetched read-only data: a local node hit.
		r.Stats.LoadHits++
	} else {
		// First touch: the owner node pulls the line from its L1.
		done = r.ownerFetch(core, addr, t)
		r.Stats.LoadMisses++
	}
	if r.arrays != nil {
		if ev, dirty := r.arrays[core].Insert(addr, false); ev >= 0 && dirty {
			r.Stats.Evictions++
		}
	} else {
		r.seen[seenKey{addr, core / 64}] |= 1 << uint(core%64)
	}
	return done
}

// Owner returns the node owning an address (bit-mask hash, as in the
// paper; all words of a cache line share an owner).
func (r *Ring) Owner(addr int64) int {
	return int((addr >> 3) & int64(r.Cfg.Nodes-1))
}

// ownerFetch models a ring miss serviced by the owner node's L1: request
// travels to the owner, the owner accesses its L1, and the reply circles
// back (a full trip in the worst case on the unidirectional ring).
func (r *Ring) ownerFetch(core int, addr int64, t int64) int64 {
	o := r.Owner(addr)
	req := int64(r.dist(core, o) * r.Cfg.LinkLatency)
	rep := int64(r.dist(o, core) * r.Cfg.LinkLatency)
	return t + req + rep + int64(r.Cfg.OwnerL1Latency) + int64(r.Cfg.InjectLatency)
}

// Signal injects a synchronization signal for segment seg at node core at
// time t; like data, signal transmission is decoupled from the core.
func (r *Ring) Signal(seg, core int, t int64) {
	r.Stats.Signals++
	inj := r.sigSlots.take(t) + int64(r.Cfg.InjectLatency)
	if inj > r.sigSent[seg][core] {
		r.sigSent[seg][core] = inj
	}
	r.sigCount[seg][core]++
}

// SignalCount returns how many signals node `from` has sent for seg.
func (r *Ring) SignalCount(seg, from int) int64 { return r.sigCount[seg][from] }

// WaitReady returns the earliest time at which a wait for segment seg at
// node `core` can complete, given that every other node's relevant prior
// signals have already been recorded. The simulator guarantees this by
// processing iterations in order.
func (r *Ring) WaitReady(seg, core int, t int64) int64 {
	ready := t
	for from := 0; from < r.Cfg.Nodes; from++ {
		sent := r.sigSent[seg][from]
		if sent < 0 || from == core {
			continue
		}
		arrive := sent + int64(r.dist(from, core)*r.Cfg.LinkLatency)
		if arrive > ready {
			ready = arrive
		}
	}
	if ready > t {
		r.Stats.SignalStalls += ready - t
	}
	return ready
}

// FlushCost returns the cycles to flush all dirty shared words through
// their owner nodes' L1s at loop end (the distributed fence of §5.2), and
// resets the dirty set.
func (r *Ring) FlushCost() int64 {
	n := int64(len(r.dirty))
	clear(r.dirty)
	if n == 0 {
		return 0
	}
	bw := int64(r.Cfg.DataBandwidth)
	if bw <= 0 {
		bw = 8
	}
	return n/bw + int64(r.Cfg.OwnerL1Latency+r.Cfg.Nodes*r.Cfg.LinkLatency)
}

// DirtyWords reports the current dirty shared word count.
func (r *Ring) DirtyWords() int { return len(r.dirty) }
