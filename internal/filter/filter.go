// Package filter implements PARROT's gradual filtering structures: the hot
// filter (selecting frequent TIDs for trace construction) and the blazing
// filter (selecting the most frequent traces for dynamic optimization).
//
// Both are small set-associative caches of saturating access counters keyed
// by TID (§2.3): each trace selection or execution increments the counter,
// and crossing the threshold fires a one-time promotion — construction and
// trace-cache insertion for the hot filter, optimization and write-back for
// the blazing filter.
package filter

// Stats counts filter activity for energy accounting and analysis.
type Stats struct {
	Accesses   uint64
	Promotions uint64
	Evictions  uint64
}

// CounterCache is a set-associative counter cache with LRU replacement.
type CounterCache struct {
	ways      int
	setMask   uint64
	threshold uint32

	keys  []uint64
	count []uint32
	valid []bool
	used  []uint64
	clock uint64

	Stats Stats
}

// New builds a counter cache with the given total entries (rounded up to a
// power of two), associativity and promotion threshold.
func New(entries, ways int, threshold uint32) *CounterCache {
	if ways < 1 {
		ways = 1
	}
	sets := 1
	for sets*ways < entries {
		sets <<= 1
	}
	n := sets * ways
	return &CounterCache{
		ways:      ways,
		setMask:   uint64(sets - 1),
		threshold: threshold,
		keys:      make([]uint64, n),
		count:     make([]uint32, n),
		valid:     make([]bool, n),
		used:      make([]uint64, n),
	}
}

// Threshold returns the promotion threshold.
func (c *CounterCache) Threshold() uint32 { return c.threshold }

// Entries returns the total entry count.
func (c *CounterCache) Entries() int { return len(c.keys) }

// Bump increments the counter for key, allocating (and possibly evicting)
// on first touch. promoted is true exactly once per resident entry: on the
// access that reaches the threshold. A re-allocated (evicted and re-inserted)
// key starts counting from zero again, as in the hardware.
func (c *CounterCache) Bump(key uint64) (count uint32, promoted bool) {
	c.clock++
	c.Stats.Accesses++
	set := (key ^ key>>17) & c.setMask
	base := int(set) * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.keys[i] == key {
			c.used[i] = c.clock
			if c.count[i] < ^uint32(0) {
				c.count[i]++
			}
			if c.count[i] == c.threshold {
				c.Stats.Promotions++
				return c.count[i], true
			}
			return c.count[i], false
		}
		if !c.valid[i] {
			victim = i
		} else if c.valid[victim] && c.used[i] < c.used[victim] {
			victim = i
		}
	}
	if c.valid[victim] {
		c.Stats.Evictions++
	}
	c.valid[victim] = true
	c.keys[victim] = key
	c.count[victim] = 1
	c.used[victim] = c.clock
	if c.threshold == 1 {
		c.Stats.Promotions++
		return 1, true
	}
	return 1, false
}

// Reset returns the filter to its just-constructed state: counters, LRU
// clock and statistics cleared (machine-pooling Reset protocol).
func (c *CounterCache) Reset() {
	for i := range c.keys {
		c.keys[i], c.count[i], c.valid[i], c.used[i] = 0, 0, false, 0
	}
	c.clock = 0
	c.Stats = Stats{}
}

// Count returns the current counter for key without modifying state.
func (c *CounterCache) Count(key uint64) uint32 {
	set := (key ^ key>>17) & c.setMask
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.keys[i] == key {
			return c.count[i]
		}
	}
	return 0
}

// Forget removes the entry for key, if present. The blazing filter uses
// this after a trace is optimized so the (now replaced) trace does not
// immediately re-promote.
func (c *CounterCache) Forget(key uint64) {
	set := (key ^ key>>17) & c.setMask
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.keys[i] == key {
			c.valid[i] = false
			return
		}
	}
}
