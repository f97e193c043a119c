// Package mem models the conventional memory hierarchy of the evaluation
// platform in Section 6.1 of the HELIX-RC paper: per-core L1 caches, a
// shared banked L2, a DRAM model with per-bank row buffers (standing in
// for DRAMSim2), and a pull-based coherence approximation with a
// configurable cache-to-cache transfer latency.
package mem

// CacheConfig sizes one cache.
type CacheConfig struct {
	SizeBytes int
	Assoc     int
	LineBytes int
}

// Lines returns the number of lines.
func (c CacheConfig) Lines() int { return c.SizeBytes / c.LineBytes }

// Cache is a set-associative cache with LRU replacement, tracked at line
// granularity. Addresses are in words (8 bytes).
type Cache struct {
	cfg     CacheConfig
	lines   []cacheLine // set-major: set s is lines[s*assoc : (s+1)*assoc]
	assoc   int
	shift   uint // word address -> line address
	setMask int64
	stamp   int64
	// gen implements O(1) whole-cache invalidation: a line is live only
	// when its gen matches the cache's. Reset bumps gen instead of
	// touching every line, which keeps cache reuse (simulator state
	// pooling) free of per-line clearing cost.
	gen       uint64
	Hits      int64
	Misses    int64
	Evictions int64
}

type cacheLine struct {
	tag   int64
	used  int64
	gen   uint64
	valid bool
	dirty bool
}

// live reports whether a line holds current contents.
func (c *Cache) live(l *cacheLine) bool { return l.valid && l.gen == c.gen }

// NewCache builds a cache; line size must be a multiple of 8 bytes and
// sizes powers of two.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineBytes < 8 {
		cfg.LineBytes = 8
	}
	if cfg.Assoc < 1 {
		cfg.Assoc = 1
	}
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Assoc
	if nSets < 1 {
		nSets = 1
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes/8 {
		shift++
	}
	return &Cache{
		cfg:     cfg,
		lines:   make([]cacheLine, nSets*cfg.Assoc),
		assoc:   cfg.Assoc,
		shift:   shift,
		setMask: int64(nSets - 1),
	}
}

// set returns the ways of the set a line address maps to.
func (c *Cache) set(line int64) []cacheLine {
	i := int(line&c.setMask) * c.assoc
	return c.lines[i : i+c.assoc : i+c.assoc]
}

// LineOf maps a word address to its line address.
func (c *Cache) LineOf(wordAddr int64) int64 { return wordAddr >> c.shift }

// WordOf maps a line address back to its first word address.
func (c *Cache) WordOf(lineAddr int64) int64 { return lineAddr << c.shift }

// Lookup reports whether the word's line is present, updating LRU on hit.
func (c *Cache) Lookup(wordAddr int64) bool {
	line := c.LineOf(wordAddr)
	set := c.set(line)
	for i := range set {
		if c.live(&set[i]) && set[i].tag == line {
			c.stamp++
			set[i].used = c.stamp
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Insert brings the word's line in, returning the evicted line address and
// whether it was dirty (evicted=-1 when nothing valid was displaced).
func (c *Cache) Insert(wordAddr int64, dirty bool) (evicted int64, evictedDirty bool) {
	line := c.LineOf(wordAddr)
	set := c.set(line)
	c.stamp++
	// Already present (e.g. insert-after-hit upgrade to dirty).
	for i := range set {
		if c.live(&set[i]) && set[i].tag == line {
			set[i].used = c.stamp
			set[i].dirty = set[i].dirty || dirty
			return -1, false
		}
	}
	victim := 0
	for i := range set {
		if !c.live(&set[i]) {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	evicted, evictedDirty = -1, false
	if c.live(&set[victim]) {
		evicted = set[victim].tag
		evictedDirty = set[victim].dirty
		c.Evictions++
	}
	set[victim] = cacheLine{tag: line, valid: true, dirty: dirty, used: c.stamp, gen: c.gen}
	return evicted, evictedDirty
}

// Invalidate drops the word's line if present.
func (c *Cache) Invalidate(wordAddr int64) {
	line := c.LineOf(wordAddr)
	set := c.set(line)
	for i := range set {
		if c.live(&set[i]) && set[i].tag == line {
			set[i].valid = false
			return
		}
	}
}

// DirtyCount returns the number of dirty lines (used for flush costs).
func (c *Cache) DirtyCount() int {
	n := 0
	for i := range c.lines {
		if c.live(&c.lines[i]) && c.lines[i].dirty {
			n++
		}
	}
	return n
}

// Reset clears the cache contents but keeps statistics. O(1): stale
// lines are left in place and filtered by the generation check, which
// selects the same victims a freshly-zeroed cache would (first stale
// slot, then LRU among live lines).
func (c *Cache) Reset() {
	c.gen++
}

// ResetAll clears contents and statistics, restoring the state of a
// freshly built cache. Used when pooling hierarchies across runs.
func (c *Cache) ResetAll() {
	c.gen++
	c.Hits, c.Misses, c.Evictions = 0, 0, 0
}
