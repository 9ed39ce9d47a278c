// Package cluster lets N parrotd processes serve as one logical service.
// It is deliberately gossip-free: the membership set is a static seed list
// (every node knows every node), liveness comes from periodic health-check
// probes against each peer's /readyz, and routing is consistent hashing of
// RunSpec digests onto the healthy subset. The pieces:
//
//   - Ring: a virtual-node consistent-hash ring over node IDs. Each cell
//     digest has exactly one owner, so its cache entry and singleflight
//     dedup live on exactly one node, and removing a node moves only the
//     digests that node owned (the minimal-disruption invariant, pinned by
//     a testing/quick property).
//   - Registry: per-node health state machine (alive → suspect → dead →
//     rejoined) driven by jittered probes plus passive traffic reports —
//     the one failure detector. Ring membership excludes dead nodes;
//     every membership change bumps an epoch that in-flight fan-outs
//     observe to re-route mid-matrix.
//   - Client: the routing client — the shared retry ladder (bounded
//     attempts, exponential backoff + jitter, a carved deadline slice per
//     attempt) with attempt k sent to the k-th ring candidate that
//     membership holds alive, so a suspect or dead owner is failed over
//     onto its ring successors.
//   - Cluster: the façade the serving layer composes — ownership lookups,
//     the forwarding client, and the parrot_cluster_* metric families.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// ringPoint is one virtual node position on the hash circle.
type ringPoint struct {
	h    uint64
	node string
}

// Ring is an immutable consistent-hash ring: build a new one on every
// membership change (the Registry does). Immutability is what makes the
// epoch protocol race-free — readers snapshot a (ring, epoch) pair and
// route against it without locks.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by h
	nodes  []string    // distinct members, sorted
}

// DefaultVNodes is the virtual-node count per member. 64 keeps the
// expected ownership imbalance across a handful of nodes under ~15% while
// the ring stays a few KiB.
const DefaultVNodes = 64

// NewRing builds a ring over the given members (deduplicated; order does
// not matter — the ring is a pure function of the member set and vnodes).
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(members))
	nodes := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		nodes = append(nodes, m)
	}
	sort.Strings(nodes)
	r := &Ring{
		vnodes: vnodes,
		nodes:  nodes,
		points: make([]ringPoint, 0, len(nodes)*vnodes),
	}
	for _, n := range nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{h: vnodeHash(n, v), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Ties broken by node name so the ring stays a pure function of
		// the member set even on (astronomically unlikely) hash collisions.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// vnodeHash positions one virtual node on the circle. The raw FNV-64a sum
// is run through a murmur-style finalizer: FNV's high bits barely avalanche
// on short strings (node URLs differing in one port digit land in a handful
// of top-byte buckets), and since ring arcs are ordered by the full hash,
// that clustering would skew ownership shares several-fold no matter how
// many vnodes are used.
func vnodeHash(node string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{'#'})
	h.Write([]byte(strconv.Itoa(v)))
	return fmix64(h.Sum64())
}

// fmix64 is the 64-bit murmur3 finalizer: a cheap full-avalanche bijection.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// keyHash maps a cell digest onto the circle. RunSpec digests are hex
// SHA-256, so the leading 16 hex digits are already uniform; anything else
// (tests, ad-hoc keys) falls back to FNV.
func keyHash(digest string) uint64 {
	if len(digest) >= 16 {
		if v, err := strconv.ParseUint(digest[:16], 16, 64); err == nil {
			return v
		}
	}
	h := fnv.New64a()
	h.Write([]byte(digest))
	return fmix64(h.Sum64())
}

// Nodes returns the member set, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// succ returns the index of the first ring point at or after h.
func (r *Ring) succ(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the member owning a digest: the first virtual node
// clockwise from the digest's position. The cell's cache entry and
// singleflight dedup live on exactly this node.
func (r *Ring) Owner(digest string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.succ(keyHash(digest))].node, true
}

// Candidates returns up to k distinct members in ring order starting at
// the digest's owner — the retry-elsewhere preference list. k <= 0 means
// all members.
func (r *Ring) Candidates(digest string, k int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if k <= 0 || k > len(r.nodes) {
		k = len(r.nodes)
	}
	out := make([]string, 0, k)
	seen := make(map[string]bool, k)
	start := r.succ(keyHash(digest))
	for i := 0; i < len(r.points) && len(out) < k; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// String renders a compact ring description.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d nodes × %d vnodes)", len(r.nodes), r.vnodes)
}
