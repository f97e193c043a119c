package mem

import (
	"testing"
	"testing/quick"
)

func TestCacheBasics(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, Assoc: 2, LineBytes: 64})
	if c.Lookup(0) {
		t.Error("empty cache should miss")
	}
	c.Insert(0, false)
	if !c.Lookup(0) {
		t.Error("inserted line should hit")
	}
	if !c.Lookup(7) {
		t.Error("same line (word 7 of a 64B line) should hit")
	}
	if c.Lookup(8) {
		t.Error("word 8 is the next line; should miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 64B lines, 128B total => 1 set of 2 ways.
	c := NewCache(CacheConfig{SizeBytes: 128, Assoc: 2, LineBytes: 64})
	c.Insert(0, true)
	c.Insert(8, false)
	c.Lookup(0) // touch 0 so 8 is LRU
	ev, dirty := c.Insert(16, false)
	if ev != c.LineOf(8) || dirty {
		t.Errorf("evicted %d dirty=%v, want line of 8 clean", ev, dirty)
	}
	if !c.Lookup(0) || c.Lookup(8) {
		t.Error("LRU order not respected")
	}
	// Now 16 is present; evicting 0 must report dirty.
	c.Lookup(16)
	ev, dirty = c.Insert(24, false)
	if ev != c.LineOf(0) || !dirty {
		t.Errorf("expected dirty eviction of line 0, got %d %v", ev, dirty)
	}
}

func TestCacheInvalidateAndDirtyCount(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, Assoc: 2, LineBytes: 64})
	c.Insert(0, true)
	c.Insert(100, true)
	c.Insert(200, false)
	if c.DirtyCount() != 2 {
		t.Errorf("dirty = %d", c.DirtyCount())
	}
	c.Invalidate(0)
	if c.Lookup(0) {
		t.Error("invalidated line should miss")
	}
	c.Reset()
	if c.DirtyCount() != 0 || c.Lookup(100) {
		t.Error("reset should clear contents")
	}
}

func TestCacheWordLineRoundTrip(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, Assoc: 8, LineBytes: 8})
	f := func(addr uint16) bool {
		return c.WordOf(c.LineOf(int64(addr))) == int64(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDRAMRowBuffer(t *testing.T) {
	d := NewDRAM(DRAMConfig{Banks: 2, RowBits: 4, HitLatency: 10, MissLatency: 50})
	first := d.Access(0)
	if first != 50 {
		t.Errorf("cold access = %d, want miss latency", first)
	}
	if d.Access(1) != 10 {
		t.Error("same-row access should hit the row buffer")
	}
	// Row 1 maps to the other bank; row 2 conflicts with row 0's bank.
	d.Access(1 << 4)
	if d.Access(0) != 10 {
		t.Error("row 0 should still be open in its bank")
	}
	if d.Access(2<<4) != 50 {
		t.Error("row conflict should pay miss latency")
	}
	if d.RowHits == 0 || d.Accesses == 0 {
		t.Error("statistics not collected")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(2, cfg)
	cold := h.Access(0, 100, false)
	if cold <= cfg.L1Latency+cfg.L2Latency {
		t.Errorf("cold access %d should include DRAM", cold)
	}
	warm := h.Access(0, 100, false)
	if warm != cfg.L1Latency {
		t.Errorf("warm access = %d, want L1 %d", warm, cfg.L1Latency)
	}
	// L2 hit from the other core (clean data: no C2C needed).
	l2 := h.Access(1, 100, false)
	if l2 != cfg.L1Latency+cfg.L2Latency {
		t.Errorf("cross-core clean access = %d, want L1+L2", l2)
	}
}

func TestHierarchyCoherenceTransfer(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(2, cfg)
	h.Access(0, 100, true) // core 0 dirties the line
	lat := h.Access(1, 100, false)
	if lat != cfg.L1Latency+cfg.CacheToCache {
		t.Errorf("remote dirty access = %d, want L1+C2C = %d", lat, cfg.L1Latency+cfg.CacheToCache)
	}
	if h.Stats.C2CXfers != 1 {
		t.Errorf("c2c transfers = %d", h.Stats.C2CXfers)
	}
	// After the transfer the line is shared; core 1 re-reads locally.
	lat = h.Access(1, 100, false)
	if lat != cfg.L1Latency {
		t.Errorf("post-transfer access = %d, want L1 hit", lat)
	}
	// Core 0's copy was invalidated by... (write-invalidate on transfer):
	// writing from core 1 must make core 0 pay C2C again.
	h.Access(1, 100, true)
	lat = h.Access(0, 100, false)
	if lat != cfg.L1Latency+cfg.CacheToCache {
		t.Errorf("ping-pong access = %d, want C2C", lat)
	}
}

func TestHierarchyFlushDirty(t *testing.T) {
	h := NewHierarchy(1, DefaultConfig())
	h.Access(0, 0, true)
	h.Access(0, 1000, true)
	if n := h.FlushDirty(0); n != 2 {
		t.Errorf("flushed %d lines, want 2", n)
	}
	if n := h.FlushDirty(0); n != 0 {
		t.Errorf("second flush found %d lines", n)
	}
}

var cacheSink *Cache

// TestNewCacheAllocs pins NewCache at two allocations, the Cache and its
// set-major line array, whatever the set count: the ring cache builds a
// per-node cache array for every lane of every batched replay.
func TestNewCacheAllocs(t *testing.T) {
	for _, cfg := range []CacheConfig{
		{SizeBytes: 1024, Assoc: 2, LineBytes: 64},
		{SizeBytes: 64 << 10, Assoc: 8, LineBytes: 64},
		{SizeBytes: 4 << 20, Assoc: 16, LineBytes: 64},
	} {
		allocs := testing.AllocsPerRun(10, func() { cacheSink = NewCache(cfg) })
		if allocs != 2 {
			t.Errorf("NewCache(%+v) allocates %.0f objects, want 2", cfg, allocs)
		}
	}
	cacheSink = nil
}
