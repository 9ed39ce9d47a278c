// Package mem models the memory hierarchy of the simulated machines: split
// first-level instruction and data caches, a unified second-level cache and
// a flat main memory latency.
//
// The model is a blocking-latency cache model in the style used by
// trace-driven microarchitecture simulators: each access returns the number
// of additional cycles beyond the first-level hit latency, and the hierarchy
// records per-level hit/miss event counts that feed the energy model.
package mem

import "fmt"

// CacheStats counts cache activity for performance and energy accounting.
type CacheStats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Writes    uint64
}

// MissRate returns the fraction of accesses that missed.
func (s *CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	name      string
	sets      int
	ways      int
	lineShift uint
	setMask   uint64

	lines []cacheLine // sets*ways, way-major within each set
	clock uint64

	Stats CacheStats
}

// cacheLine is one way of one set. Keeping the tag, LRU stamp and flags in
// a single struct means a set probe walks ways*24 contiguous bytes instead
// of four parallel arrays (one cache-line touch per array per probe).
type cacheLine struct {
	tag   uint64
	used  uint64 // LRU timestamp
	valid bool
	pref  bool // line was filled by prefetch and not yet demand-hit
}

// NewCache builds a cache of the given total size in bytes, associativity
// and line size. Size, ways and line must be powers of two with
// size >= ways*line; NewCache panics otherwise, since cache geometry is
// static configuration.
func NewCache(name string, size, ways, line int) *Cache {
	if size <= 0 || ways <= 0 || line <= 0 {
		panic(fmt.Sprintf("mem: bad cache geometry %d/%d/%d", size, ways, line))
	}
	sets := size / (ways * line)
	if sets <= 0 || sets&(sets-1) != 0 || line&(line-1) != 0 {
		panic(fmt.Sprintf("mem: non-power-of-two cache geometry %d/%d/%d", size, ways, line))
	}
	shift := uint(0)
	for 1<<shift != line {
		shift++
	}
	return &Cache{
		name:      name,
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		lines:     make([]cacheLine, sets*ways),
	}
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return 1 << c.lineShift }

// Lookup probes the cache for addr without modifying contents, reporting a
// hit. It does not count statistics.
func (c *Cache) Lookup(addr uint64) bool {
	set := int((addr >> c.lineShift) & c.setMask)
	tag := addr >> c.lineShift
	lines := c.lines[set*c.ways : set*c.ways+c.ways]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			return true
		}
	}
	return false
}

// Access performs a read or write access, allocating on miss, and reports
// whether it hit. Statistics are updated.
func (c *Cache) Access(addr uint64, write bool) bool {
	hit, _ := c.AccessTagged(addr, write, false)
	return hit
}

// AccessTagged is Access with prefetch-tag handling: asPrefetch marks the
// filled (or re-touched) line as prefetched; firstPrefHit reports that a
// demand access hit a prefetched line for the first time, the trigger for
// the tagged next-line prefetcher.
func (c *Cache) AccessTagged(addr uint64, write, asPrefetch bool) (hit, firstPrefHit bool) {
	c.clock++
	c.Stats.Accesses++
	if write {
		c.Stats.Writes++
	}
	set := int((addr >> c.lineShift) & c.setMask)
	tag := addr >> c.lineShift
	lines := c.lines[set*c.ways : set*c.ways+c.ways]
	// Hit scan first: hits are the overwhelmingly common case, so victim
	// selection (only meaningful on a miss) is deferred to a second pass.
	for i := range lines {
		ln := &lines[i]
		if ln.valid && ln.tag == tag {
			ln.used = c.clock
			c.Stats.Hits++
			if ln.pref && !asPrefetch {
				ln.pref = false
				return true, true
			}
			return true, false
		}
	}
	// Miss: pick the victim exactly as the fused scan did — the last
	// invalid way if any, else the least-recently-used valid way.
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
		} else if lines[victim].valid && lines[i].used < lines[victim].used {
			victim = i
		}
	}
	c.Stats.Misses++
	v := &lines[victim]
	if v.valid {
		c.Stats.Evictions++
	}
	v.valid = true
	v.tag = tag
	v.pref = asPrefetch
	v.used = c.clock
	return false, false
}

// Flush invalidates the entire cache, preserving statistics.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i].valid = false
	}
}

// Reset returns the cache to its just-constructed state: contents, LRU
// clock and statistics are all cleared. Part of the machine-pooling Reset
// protocol; a reset cache behaves bit-identically to a fresh one.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = cacheLine{}
	}
	c.clock = 0
	c.Stats = CacheStats{}
}

// HierarchyConfig describes a full memory hierarchy.
type HierarchyConfig struct {
	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L2Size, L2Ways   int
	LineSize         int

	L2Latency  int // extra cycles on L1 miss, L2 hit
	MemLatency int // extra cycles on L2 miss
}

// DefaultHierarchy mirrors the cache settings used for all models in the
// study: 32KB 4-way L1I and L1D, 1MB 8-way unified L2, 64B lines.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1ISize: 32 << 10, L1IWays: 4,
		L1DSize: 32 << 10, L1DWays: 4,
		L2Size: 1 << 20, L2Ways: 8,
		LineSize:   64,
		L2Latency:  10,
		MemLatency: 80,
	}
}

// Hierarchy is an instantiated memory system with a simple next-line
// hardware prefetcher on the data side: a demand miss fills the following
// line as well, hiding the compulsory misses of streaming access patterns.
type Hierarchy struct {
	cfg HierarchyConfig
	L1I *Cache
	L1D *Cache
	L2  *Cache

	// Prefetches counts next-line prefetch fills (for energy accounting).
	Prefetches uint64
}

// NewHierarchy instantiates the configured caches.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		L1I: NewCache("l1i", cfg.L1ISize, cfg.L1IWays, cfg.LineSize),
		L1D: NewCache("l1d", cfg.L1DSize, cfg.L1DWays, cfg.LineSize),
		L2:  NewCache("l2", cfg.L2Size, cfg.L2Ways, cfg.LineSize),
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// Reset clears all three caches and the prefetch counter, returning the
// hierarchy to its just-constructed state without reallocating tag arrays.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.Prefetches = 0
}

// L2SizeMB returns the level-2 capacity in megabytes, as used by the
// paper's leakage formula (0.05 per MByte of L2).
func (h *Hierarchy) L2SizeMB() float64 { return float64(h.cfg.L2Size) / (1 << 20) }

// FetchInst accesses the instruction path for addr and returns the extra
// latency beyond an L1I hit.
func (h *Hierarchy) FetchInst(addr uint64) int {
	if h.L1I.Access(addr, false) {
		return 0
	}
	if h.L2.Access(addr, false) {
		return h.cfg.L2Latency
	}
	return h.cfg.L2Latency + h.cfg.MemLatency
}

// AccessData accesses the data path for addr and returns the extra latency
// beyond an L1D hit. The tagged next-line prefetcher triggers on a demand
// miss and on the first demand hit of a prefetched line, so unit-stride
// streams stay one line ahead and hide their compulsory misses.
func (h *Hierarchy) AccessData(addr uint64, write bool) int {
	hit, firstPref := h.L1D.AccessTagged(addr, write, false)
	if hit {
		if firstPref {
			h.prefetch(addr + uint64(h.cfg.LineSize))
		}
		return 0
	}
	h.prefetch(addr + uint64(h.cfg.LineSize))
	if h.L2.Access(addr, write) {
		return h.cfg.L2Latency
	}
	return h.cfg.L2Latency + h.cfg.MemLatency
}

// MaxDataLatency bounds AccessData's return value: a full L1-and-L2 miss.
// It makes *Hierarchy a concrete ooo.MemModel, letting the execution engine
// size its completion time wheel to cover every possible data access.
func (h *Hierarchy) MaxDataLatency() int { return h.cfg.L2Latency + h.cfg.MemLatency }

// prefetch fills a line into L1D and L2 without perturbing demand
// statistics.
func (h *Hierarchy) prefetch(addr uint64) {
	if h.L1D.Lookup(addr) {
		return
	}
	h.Prefetches++
	save1, save2 := h.L1D.Stats, h.L2.Stats
	h.L1D.AccessTagged(addr, false, true)
	h.L2.AccessTagged(addr, false, true)
	h.L1D.Stats, h.L2.Stats = save1, save2
}
