// Package tcache implements the trace cache: set-associative storage of
// decoded (and, after blazing promotion, optimized) trace frames keyed by
// TID.
//
// The trace cache is PARROT's container for reuse of hardware work (§2.1):
// it stores decoded uops, so a hot-pipeline fetch skips the serial IA32
// decoders entirely, and it stores optimized traces, so one optimization is
// amortized over many executions.
package tcache

import "parrot/internal/trace"

// Stats counts trace-cache activity.
type Stats struct {
	Lookups    uint64
	Hits       uint64
	Misses     uint64
	Inserts    uint64
	Writebacks uint64 // optimizer write-backs replacing resident traces
	Evictions  uint64
}

// HitRate returns hits per lookup.
func (s *Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Probe receives trace-cache events when observability is enabled. The
// cache has no clock of its own; implementations stamp events with the
// machine time of the call (see obs.Recorder). Probes observe only.
type Probe interface {
	// TCLookup reports one Lookup call and its outcome.
	TCLookup(key uint64, hit bool)
	// TCInsert reports a trace insert; writeback marks an in-place
	// replacement of a resident trace (the optimizer's write-back path).
	TCInsert(key uint64, uops int, writeback bool)
	// TCEvict reports the eviction of a resident trace.
	TCEvict(key uint64)
}

// Cache is a set-associative trace cache with LRU replacement. Capacity is
// counted in trace frames (each up to trace.MaxUops uops).
type Cache struct {
	ways    int
	setMask uint64

	keys   []uint64
	traces []*trace.Trace
	used   []uint64
	clock  uint64

	// probe, when non-nil, observes lookups, inserts and evictions. A single
	// nil-check branch per operation; nil-probe behaviour is identical to an
	// uninstrumented cache.
	probe Probe

	Stats Stats
}

// SetProbe attaches (or, with nil, detaches) an event probe.
func (c *Cache) SetProbe(p Probe) { c.probe = p }

// New builds a trace cache holding the given number of frames (rounded up
// to a power of two) with the given associativity.
func New(frames, ways int) *Cache {
	if ways < 1 {
		ways = 1
	}
	sets := 1
	for sets*ways < frames {
		sets <<= 1
	}
	n := sets * ways
	return &Cache{
		ways:    ways,
		setMask: uint64(sets - 1),
		keys:    make([]uint64, n),
		traces:  make([]*trace.Trace, n),
		used:    make([]uint64, n),
	}
}

// Frames returns the capacity in trace frames.
func (c *Cache) Frames() int { return len(c.traces) }

func (c *Cache) set(key uint64) int {
	return int((key^key>>13)&c.setMask) * c.ways
}

// Lookup probes the cache for a TID key, updating LRU and statistics.
func (c *Cache) Lookup(key uint64) (*trace.Trace, bool) {
	c.clock++
	c.Stats.Lookups++
	base := c.set(key)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.traces[i] != nil && c.keys[i] == key {
			c.used[i] = c.clock
			c.Stats.Hits++
			if c.probe != nil {
				c.probe.TCLookup(key, true)
			}
			return c.traces[i], true
		}
	}
	c.Stats.Misses++
	if c.probe != nil {
		c.probe.TCLookup(key, false)
	}
	return nil, false
}

// Probe reports residency without touching LRU or statistics.
func (c *Cache) Probe(key uint64) bool {
	base := c.set(key)
	for w := 0; w < c.ways; w++ {
		if c.traces[base+w] != nil && c.keys[base+w] == key {
			return true
		}
	}
	return false
}

// Insert stores a newly constructed trace, evicting the set's LRU frame if
// needed. Inserting an already-resident key replaces the stored trace (the
// optimizer's write-back path) and counts as a write-back. The evicted
// trace, if any, is returned so the caller can recycle its storage; a
// write-back replacing tr itself returns nil.
func (c *Cache) Insert(tr *trace.Trace) (evicted *trace.Trace) {
	c.clock++
	key := tr.TID.Key()
	base := c.set(key)
	victim := base
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.traces[i] != nil && c.keys[i] == key {
			old := c.traces[i]
			c.traces[i] = tr
			c.used[i] = c.clock
			c.Stats.Writebacks++
			if c.probe != nil {
				c.probe.TCInsert(key, len(tr.Uops), true)
			}
			if old != tr {
				return old
			}
			return nil
		}
		if c.traces[i] == nil {
			victim = i
		} else if c.traces[victim] != nil && c.used[i] < c.used[victim] {
			victim = i
		}
	}
	if c.traces[victim] != nil {
		c.Stats.Evictions++
		evicted = c.traces[victim]
		if c.probe != nil {
			c.probe.TCEvict(c.keys[victim])
		}
	}
	c.keys[victim] = key
	c.traces[victim] = tr
	c.used[victim] = c.clock
	c.Stats.Inserts++
	if c.probe != nil {
		c.probe.TCInsert(key, len(tr.Uops), false)
	}
	return evicted
}

// Reset empties the cache and clears statistics, returning it to the
// just-constructed state (machine-pooling Reset protocol). If recycle is
// non-nil it is called once per resident trace so the caller can reclaim
// trace storage into a slab.
func (c *Cache) Reset(recycle func(*trace.Trace)) {
	for i := range c.traces {
		if c.traces[i] != nil && recycle != nil {
			recycle(c.traces[i])
		}
		c.traces[i] = nil
		c.keys[i] = 0
		c.used[i] = 0
	}
	c.clock = 0
	c.Stats = Stats{}
	c.probe = nil // observers are per-run
}

// Occupancy returns the number of resident frames.
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.traces {
		if t != nil {
			n++
		}
	}
	return n
}

// Resident returns all resident traces (for end-of-run statistics such as
// the paper's optimized-trace utilization, Figure 4.10).
func (c *Cache) Resident() []*trace.Trace {
	out := make([]*trace.Trace, 0, len(c.traces))
	for _, t := range c.traces {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}
