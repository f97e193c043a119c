package ringcache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistUnidirectional(t *testing.T) {
	r := New(DefaultConfig(16), 1)
	if r.dist(0, 1) != 1 || r.dist(15, 0) != 1 || r.dist(0, 15) != 15 {
		t.Error("forward distances wrong")
	}
	if r.dist(5, 5) != 0 {
		t.Error("self distance should be 0")
	}
	f := func(a, b uint8) bool {
		x, y := int(a%16), int(b%16)
		d := r.dist(x, y)
		return d >= 0 && d < 16 && (d != 0 || x == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreThenLoadPropagation(t *testing.T) {
	cfg := DefaultConfig(16)
	r := New(cfg, 1)
	inj := r.Store(2, 100, 10)
	if inj < 10+int64(cfg.InjectLatency) {
		t.Errorf("injection done at %d", inj)
	}
	// A consumer 3 hops away issuing long after propagation: no stall.
	done := r.Load(5, 100, 1000)
	if done != 1001 {
		t.Errorf("late load done at %d, want 1001 (node access only)", done)
	}
	// An immediate consumer 3 hops away stalls for the propagation.
	r2 := New(cfg, 1)
	inj2 := r2.Store(2, 100, 10)
	done2 := r2.Load(5, 100, inj2)
	want := inj2 + int64(3*cfg.LinkLatency)
	if done2 != want {
		t.Errorf("eager load done at %d, want %d", done2, want)
	}
	if r2.Stats.StallCycles == 0 {
		t.Error("stall cycles should be recorded")
	}
}

func TestLoadMissGoesToOwner(t *testing.T) {
	cfg := DefaultConfig(16)
	r := New(cfg, 1)
	// Never-stored address: full owner fetch.
	done := r.Load(3, 555, 100)
	if done <= 100+1 {
		t.Errorf("first-touch load should pay the owner fetch, got %d", done)
	}
	if r.Stats.LoadMisses != 1 {
		t.Errorf("misses = %d", r.Stats.LoadMisses)
	}
	// Second load at the same node hits the local array.
	done2 := r.Load(3, 555, done)
	if done2 != done+1 {
		t.Errorf("second load = %d, want node hit", done2)
	}
}

// TestUnboundedPresencePastNode64 pins the unbounded-array presence
// bitmask on a ring wider than one 64-bit word: every node, including
// 64 and above, hits on its second load of an address, and a node's
// copy is its own, not that of the node 64 below it.
func TestUnboundedPresencePastNode64(t *testing.T) {
	cfg := DefaultConfig(128)
	cfg.ArrayBytes = 0
	for _, node := range []int{5, 63, 64, 100, 127} {
		r := New(cfg, 1)
		r.Load(node, 800, 10)
		r.Load(node, 800, 100)
		if r.Stats.LoadHits != 1 || r.Stats.LoadMisses != 1 {
			t.Errorf("node %d: two loads of one address read %d hits and %d misses, want 1 and 1",
				node, r.Stats.LoadHits, r.Stats.LoadMisses)
		}
		// The node one word away shares the bit position, not the copy.
		other, hits := (node+64)%128, r.Stats.LoadHits
		r.Load(other, 800, 200)
		if r.Stats.LoadHits != hits {
			t.Errorf("node %d hit on node %d's copy", other, node)
		}
	}
	// A store circulates the value past every node of every word.
	r := New(cfg, 1)
	r.Store(3, 900, 10)
	for _, node := range []int{0, 64, 100, 127} {
		r.Load(node, 900, 1000)
	}
	if r.Stats.LoadHits != 4 || r.Stats.LoadMisses != 0 {
		t.Errorf("loads after a store read %d hits and %d misses, want 4 and 0", r.Stats.LoadHits, r.Stats.LoadMisses)
	}
}

func TestArrayEviction(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.ArrayBytes = 64 // 8 words per node
	cfg.Assoc = 1
	r := New(cfg, 1)
	for a := int64(0); a < 64; a++ {
		r.Store(0, a*8, 0) // all map around; direct-mapped conflicts
	}
	if r.Stats.Evictions == 0 {
		t.Error("tiny array should evict")
	}
	// Unbounded array never evicts.
	cfg2 := DefaultConfig(4)
	cfg2.ArrayBytes = 0
	r2 := New(cfg2, 1)
	for a := int64(0); a < 64; a++ {
		r2.Store(0, a*8, 0)
	}
	if r2.Stats.Evictions != 0 {
		t.Errorf("unbounded array evicted %d", r2.Stats.Evictions)
	}
}

func TestSignalWaitOrdering(t *testing.T) {
	cfg := DefaultConfig(16)
	r := New(cfg, 2)
	// Node 0 signals segment 1 at t=50.
	r.Signal(1, 0, 50)
	// Node 1 (adjacent) sees it one hop after injection.
	ready := r.WaitReady(1, 1, 0)
	want := 50 + int64(cfg.InjectLatency) + int64(cfg.LinkLatency)
	if ready != want {
		t.Errorf("wait ready at %d, want %d", ready, want)
	}
	// Node 15 is 15 hops from node 0.
	ready15 := r.WaitReady(1, 15, 0)
	if ready15 != 50+int64(cfg.InjectLatency)+15 {
		t.Errorf("far node ready at %d", ready15)
	}
	// A wait issued after arrival does not stall.
	if got := r.WaitReady(1, 1, want+10); got != want+10 {
		t.Errorf("late wait should not stall: %d", got)
	}
	if r.SignalCount(1, 0) != 1 || r.SignalCount(0, 0) != 0 {
		t.Error("signal counts wrong")
	}
}

func TestSignalBandwidthContention(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.SignalBandwidth = 1
	r := New(cfg, 8)
	for s := 0; s < 8; s++ {
		r.Signal(s, 0, 100) // 8 signals in the same cycle
	}
	// With bandwidth 1 the last one is serialized 7 cycles later.
	last := r.WaitReady(7, 1, 0)
	first := r.WaitReady(0, 1, 0)
	if last < first+7 {
		t.Errorf("bandwidth-1 should serialize: first=%d last=%d", first, last)
	}
	// Unbounded bandwidth keeps them together.
	cfg2 := DefaultConfig(16)
	cfg2.SignalBandwidth = 0
	r2 := New(cfg2, 8)
	for s := 0; s < 8; s++ {
		r2.Signal(s, 0, 100)
	}
	if r2.WaitReady(7, 1, 0) != r2.WaitReady(0, 1, 0) {
		t.Error("unbounded bandwidth should not serialize")
	}
}

func TestDataBandwidthContention(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.DataBandwidth = 1
	r := New(cfg, 1)
	t1 := r.Store(0, 8, 100)
	t2 := r.Store(0, 16, 100)
	if t2 <= t1 {
		t.Errorf("one-word bandwidth should serialize stores: %d %d", t1, t2)
	}
}

func TestFlushCost(t *testing.T) {
	r := New(DefaultConfig(16), 1)
	if r.FlushCost() != 0 {
		t.Error("nothing dirty: flush should be free")
	}
	for a := int64(0); a < 32; a++ {
		r.Store(0, 1000+a, 0)
	}
	if r.DirtyWords() != 32 {
		t.Errorf("dirty words = %d", r.DirtyWords())
	}
	c := r.FlushCost()
	if c <= 0 {
		t.Errorf("flush cost = %d", c)
	}
	if r.DirtyWords() != 0 {
		t.Error("flush should clear the dirty set")
	}
}

func TestOwnerMapping(t *testing.T) {
	r := New(DefaultConfig(16), 1)
	// All words of one 64-byte line share an owner.
	base := int64(0x1000)
	o := r.Owner(base)
	for w := int64(0); w < 8; w++ {
		if r.Owner(base+w) != o {
			t.Fatalf("words of one line have different owners")
		}
	}
	// Different lines spread across nodes.
	seen := map[int]bool{}
	for l := int64(0); l < 16; l++ {
		seen[r.Owner(l*8)] = true
	}
	if len(seen) != 16 {
		t.Errorf("bit-mask hash should spread lines over all nodes, got %d", len(seen))
	}
}

// TestSharedArraysMatchOwned drives rings that differ only in link
// latency and signal bandwidth through one access sequence two ways:
// each with its own arrays (New), and as timing-only rings (NewTiming)
// over one Arrays updated once per access. Every returned time, the
// stats and the flush cost must agree: what the arrays hold follows from
// the accesses alone.
func TestSharedArraysMatchOwned(t *testing.T) {
	for _, arrayBytes := range []int{64, 1 << 10, 0} {
		base := DefaultConfig(8)
		base.ArrayBytes, base.Assoc = arrayBytes, 2
		slow := base
		slow.LinkLatency, slow.SignalBandwidth = 4, 1
		cfgs := []Config{base, slow}
		shared := NewArrays(base)
		var owned, timing []*Ring
		for _, cfg := range cfgs {
			owned = append(owned, New(cfg, 2))
			timing = append(timing, NewTiming(cfg, 2))
		}
		rng := rand.New(rand.NewSource(int64(arrayBytes) + 1))
		tm := int64(1)
		for op := 0; op < 4000; op++ {
			core, addr := rng.Intn(8), int64(rng.Intn(200))
			tm += int64(rng.Intn(3))
			switch rng.Intn(3) {
			case 0:
				ev := shared.Store(core, addr)
				for i := range cfgs {
					if got, want := timing[i].TimeStore(core, addr, tm, ev), owned[i].Store(core, addr, tm); got != want {
						t.Fatalf("%d bytes, config %d, op %d: TimeStore = %d, Store = %d", arrayBytes, i, op, got, want)
					}
				}
			case 1:
				present, ev := shared.Load(core, addr)
				for i := range cfgs {
					if got, want := timing[i].TimeLoad(core, addr, tm, present, ev), owned[i].Load(core, addr, tm); got != want {
						t.Fatalf("%d bytes, config %d, op %d: TimeLoad = %d, Load = %d", arrayBytes, i, op, got, want)
					}
				}
			case 2:
				for i := range cfgs {
					timing[i].Signal(op%2, core, tm)
					owned[i].Signal(op%2, core, tm)
				}
			}
		}
		for i := range cfgs {
			if got, want := timing[i].FlushCostOf(shared.DirtyWords()), owned[i].FlushCost(); got != want {
				t.Errorf("%d bytes, config %d: FlushCostOf = %d, FlushCost = %d", arrayBytes, i, got, want)
			}
			if timing[i].Stats != owned[i].Stats {
				t.Errorf("%d bytes, config %d: stats diverge:\ntiming: %+v\nowned:  %+v", arrayBytes, i, timing[i].Stats, owned[i].Stats)
			}
		}
	}
}
