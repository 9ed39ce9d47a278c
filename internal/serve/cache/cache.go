// Package cache implements the serving layer's content-addressed result
// store. Keys are RunSpec digests (hex SHA-256 of the fully-resolved run
// spec, see experiments.RunSpec.Digest); values are complete core.Result
// cells. PR 2's golden digest proved runs are bit-exact functions of their
// spec, so the mapping digest → result is immutable: entries never need
// invalidation (a modelling change bumps experiments.SimVersion, which
// changes every key).
//
// The store is two-level: a byte-budgeted in-memory LRU front serves
// repeated cells in microseconds, and an optional on-disk store (atomic
// rename writes) survives restarts. Every entry carries the canonical
// result digest (experiments.ResultDigest); disk loads are verified against
// it, so corrupt or truncated entries are detected, expunged and recomputed
// — never served.
//
// Memory entries hold the decoded core.Result, so a memory hit is a struct
// copy, not a JSON decode. They come in two classes. Owned entries are the
// cells this node computed or loaded from its own disk. Replicas are
// answers a cluster coordinator received from a peer that owns the cell:
// they live in memory only, never reach the disk, and are always evicted
// before any owned entry.
package cache

import (
	"context"
	"encoding/json"
	"sync"
	"unsafe"

	"parrot/internal/chaos"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/telemetry"
)

// Stats counts cache traffic. Hits = MemHits + DiskHits.
type Stats struct {
	Hits       uint64
	Misses     uint64
	MemHits    uint64
	DiskHits   uint64
	Puts       uint64
	Evictions  uint64
	DiskPuts   uint64
	DiskErrors uint64 // unreadable/corrupt/mismatched disk entries expunged

	Entries  int   // resident in-memory entries (owned + replicas)
	Replicas int   // resident replica entries
	Bytes    int64 // resident in-memory payload bytes
	Budget   int64 // in-memory byte budget

	// EntryBytesMean is the mean encoded entry size over all owned
	// insertions.
	EntryBytesMean float64
}

// HitRate returns hits per lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Config parameterizes a cache.
type Config struct {
	// MemBudget bounds resident payload bytes (<=0 = 64 MiB). An owned
	// entry is charged its encoded payload size, a replica the mean encoded
	// size of the owned insertions so far; map/list overhead is not charged.
	MemBudget int64
	// Dir enables the on-disk store when non-empty. The directory is
	// created if missing. Disk entries are not budgeted (cells are a few
	// KiB; a full 44×7 matrix is ~1 MiB).
	Dir string
	// Chaos, when non-nil, arms the "cache.disk.get" / "cache.disk.put"
	// injection sites: slow-disk latency and I/O faults (a failed read is
	// a miss, a failed write counts a DiskErrors).
	Chaos *chaos.Injector
}

// entry is one resident cell: the decoded result plus its integrity
// digest, on the intrusive LRU list of its class.
type entry struct {
	key        string
	res        core.Result
	resDigest  string
	size       int64 // bytes charged against the budget
	replica    bool
	next, prev *entry // LRU list: head = most recent
}

// lru is one intrusive recency list.
type lru struct {
	head *entry // most recently used
	tail *entry // least recently used
}

func (l *lru) pushFront(e *entry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lru) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lru) moveToFront(e *entry) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}

// Cache is a content-addressed result store. All methods are safe for
// concurrent use.
type Cache struct {
	mu       sync.Mutex
	budget   int64
	bytes    int64
	entries  map[string]*entry
	owned    lru
	replicas lru
	nReplica int
	dir      string
	chaos    *chaos.Injector

	// ownedBytes/ownedPuts sum and count encoded entry sizes over all owned
	// insertions; their mean sizes replicas and is the byte-budget sizing
	// signal surfaced on /metricsz.
	ownedBytes, ownedPuts int64

	stats Stats
}

// New builds a cache. If cfg.Dir is non-empty the directory is created and
// used as the persistent second level.
func New(cfg Config) (*Cache, error) {
	budget := cfg.MemBudget
	if budget <= 0 {
		budget = 64 << 20
	}
	c := &Cache{
		budget:  budget,
		entries: make(map[string]*entry),
		dir:     cfg.Dir,
		chaos:   cfg.Chaos,
	}
	if cfg.Dir != "" {
		if err := c.initDir(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// encode produces the canonical payload of a result. JSON of core.Result
// round-trips exactly (uint64 counters and shortest-roundtrip float64s), so
// decode(encode(r)) reproduces r's ResultDigest bit-identically.
func encode(res *core.Result) ([]byte, error) { return json.Marshal(res) }

func decode(payload []byte) (*core.Result, error) {
	var r core.Result
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Get returns the cell stored under the digest. The in-memory front is
// consulted first; on miss, the disk store (when enabled) is probed,
// verified against the stored result digest and promoted into memory.
// Corrupt disk entries count as misses (and are expunged) — the caller
// recomputes and Puts the fresh result. The returned result is the
// caller's own copy.
func (c *Cache) Get(digest string) (*core.Result, bool) {
	res, _, _, ok := c.get(digest, c.dir != "")
	return res, ok
}

// GetCtx is Get with telemetry: when the context carries a request trace
// the lookup is recorded as a "cache.get" span whose outcome attribute
// names the serving level ("mem", "disk", "miss"), and disk promotions are
// logged through the context's structured logger.
func (c *Cache) GetCtx(ctx context.Context, digest string) (*core.Result, bool) {
	res, _, ok := c.getCtx(ctx, digest, c.dir != "")
	return res, ok
}

// GetMem is GetCtx restricted to memory, owned entries and replicas
// alike, and it also returns the stored result digest, so a hit is served
// without re-hashing the result. A cluster coordinator probes it before
// forwarding a request for a peer-owned cell.
func (c *Cache) GetMem(ctx context.Context, digest string) (*core.Result, string, bool) {
	return c.getCtx(ctx, digest, false)
}

func (c *Cache) getCtx(ctx context.Context, digest string, disk bool) (*core.Result, string, bool) {
	sp := telemetry.TraceFrom(ctx).StartSpan("cache.get",
		telemetry.A("digest", shortKey(digest)))
	res, resDigest, source, ok := c.get(digest, disk)
	sp.SetAttr("outcome", source)
	sp.End()
	if l := telemetry.LoggerFrom(ctx); l != nil && source == "disk" {
		l.Debug("cache disk promote", "digest", shortKey(digest))
	}
	return res, resDigest, ok
}

// get is the shared lookup; source reports the serving level ("mem",
// "disk", "miss"). The disk is probed only when disk is set.
func (c *Cache) get(digest string, disk bool) (*core.Result, string, string, bool) {
	c.mu.Lock()
	if e, ok := c.entries[digest]; ok {
		c.listOf(e).moveToFront(e)
		res, resDigest := e.res, e.resDigest
		c.stats.Hits++
		c.stats.MemHits++
		c.mu.Unlock()
		return &res, resDigest, "mem", true
	}
	c.mu.Unlock()

	if disk {
		if res, payload, resDigest, ok := c.diskGet(digest); ok {
			c.mu.Lock()
			c.stats.Hits++
			c.stats.DiskHits++
			c.insertLocked(&entry{key: digest, res: *res, resDigest: resDigest, size: int64(len(payload))})
			c.mu.Unlock()
			return res, resDigest, "disk", true
		}
	}

	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, "", "miss", false
}

// Put stores a cell under its digest, in memory and (when enabled) on
// disk. Storing an already-resident owned digest refreshes recency only:
// content under a digest is immutable. A resident replica is promoted to
// an owned entry and written to disk.
func (c *Cache) Put(digest string, res *core.Result) error {
	payload, err := encode(res)
	if err != nil {
		return err
	}
	resDigest := experiments.ResultDigest(res)

	c.mu.Lock()
	c.stats.Puts++
	if e, ok := c.entries[digest]; ok && !e.replica {
		c.owned.moveToFront(e)
		c.mu.Unlock()
		return nil
	}
	c.insertLocked(&entry{key: digest, res: *res, resDigest: resDigest, size: int64(len(payload))})
	c.mu.Unlock()

	if c.dir != "" {
		if err := c.diskPut(digest, payload, resDigest); err != nil {
			c.mu.Lock()
			c.stats.DiskErrors++
			c.mu.Unlock()
			return err
		}
		c.mu.Lock()
		c.stats.DiskPuts++
		c.mu.Unlock()
	}
	return nil
}

// PutReplica stores a peer-owned cell in memory only: no disk write, and
// first in line for eviction. resDigest must be the result's verified
// ResultDigest; it is stored as given, so the insert neither encodes nor
// hashes. A digest already resident is left as it is.
func (c *Cache) PutReplica(digest, resDigest string, res *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[digest]; ok {
		return
	}
	size := int64(c.entryBytesMeanLocked())
	if size <= 0 {
		size = int64(unsafe.Sizeof(*res))
	}
	c.insertLocked(&entry{key: digest, res: *res, resDigest: resDigest, size: size, replica: true})
}

func (c *Cache) listOf(e *entry) *lru {
	if e.replica {
		return &c.replicas
	}
	return &c.owned
}

// insertLocked makes e resident and evicts until the byte budget holds:
// least recent replicas first, then least recent owned entries. An owned
// entry replaces a resident replica of the same digest; otherwise a
// resident digest only refreshes recency. A lone owned entry larger than
// the budget stays resident. Caller holds c.mu.
func (c *Cache) insertLocked(e *entry) {
	if old, ok := c.entries[e.key]; ok {
		if !old.replica || e.replica {
			c.listOf(old).moveToFront(old)
			return
		}
		c.removeLocked(old)
	}
	c.entries[e.key] = e
	c.bytes += e.size
	if e.replica {
		c.nReplica++
	} else {
		c.ownedBytes += e.size
		c.ownedPuts++
	}
	c.listOf(e).pushFront(e)
	for c.bytes > c.budget {
		victim := c.replicas.tail
		if victim == nil {
			victim = c.owned.tail
			if victim == nil || victim == e {
				return
			}
		}
		c.stats.Evictions++
		c.removeLocked(victim)
		if victim == e {
			return
		}
	}
}

func (c *Cache) removeLocked(e *entry) {
	c.listOf(e).unlink(e)
	if e.replica {
		c.nReplica--
	}
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// Len returns the number of resident in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns resident in-memory payload bytes.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Replicas = c.nReplica
	s.Bytes = c.bytes
	s.Budget = c.budget
	s.EntryBytesMean = c.entryBytesMeanLocked()
	return s
}

// entryBytesMeanLocked is the mean encoded size of owned insertions (0
// before the first). Caller holds c.mu.
func (c *Cache) entryBytesMeanLocked() float64 {
	if c.ownedPuts == 0 {
		return 0
	}
	return float64(c.ownedBytes) / float64(c.ownedPuts)
}

// Register wires the cache into a telemetry registry as a scrape-time
// collector. Every series derives from one Stats() snapshot — a single
// lock pass — so a scrape never observes torn counters (e.g. Hits without
// the matching MemHits/DiskHits split).
func (c *Cache) Register(reg *telemetry.Registry) {
	if c == nil {
		return
	}
	reg.RegisterCollector(func(emit telemetry.Emit) {
		st := c.Stats()
		emit("parrot_cache_lookups_total", "counter", "Cache lookups by serving level.",
			float64(st.MemHits), "level", "mem")
		emit("parrot_cache_lookups_total", "counter", "Cache lookups by serving level.",
			float64(st.DiskHits), "level", "disk")
		emit("parrot_cache_lookups_total", "counter", "Cache lookups by serving level.",
			float64(st.Misses), "level", "miss")
		emit("parrot_cache_puts_total", "counter", "Results stored.", float64(st.Puts))
		emit("parrot_cache_evictions_total", "counter", "In-memory LRU evictions (replicas first).", float64(st.Evictions))
		emit("parrot_cache_disk_puts_total", "counter", "Results persisted to disk.", float64(st.DiskPuts))
		emit("parrot_cache_disk_errors_total", "counter", "Corrupt/unwritable disk entries.", float64(st.DiskErrors))
		emit("parrot_cache_entries", "gauge", "Resident in-memory entries.", float64(st.Entries))
		emit("parrot_cache_replicas", "gauge", "Resident memory-only replicas of peer-owned cells.", float64(st.Replicas))
		emit("parrot_cache_bytes", "gauge", "Resident in-memory payload bytes.", float64(st.Bytes))
		emit("parrot_cache_budget_bytes", "gauge", "In-memory byte budget.", float64(st.Budget))
		emit("parrot_cache_hit_rate", "gauge", "Hits per lookup.", st.HitRate())
		emit("parrot_cache_entry_bytes_mean", "gauge", "Mean encoded size of owned insertions.", st.EntryBytesMean)
	})
}

// shortKey truncates a content address for span/log attributes.
func shortKey(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
