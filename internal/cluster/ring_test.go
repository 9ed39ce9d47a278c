package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// digestFor renders a 64-bit key as the 16-hex-digit prefix keyHash parses,
// mimicking real RunSpec digests (hex SHA-256).
func digestFor(k uint64) string { return fmt.Sprintf("%016x", k) }

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	return out
}

func TestRingOrderIndependent(t *testing.T) {
	base := members(5)
	r1 := NewRing(base, 32)
	perm := append([]string(nil), base...)
	rand.New(rand.NewSource(7)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	r2 := NewRing(perm, 32)
	for k := uint64(0); k < 2048; k++ {
		d := digestFor(k * 0x9e3779b97f4a7c15)
		o1, _ := r1.Owner(d)
		o2, _ := r2.Owner(d)
		if o1 != o2 {
			t.Fatalf("owner of %s differs by member order: %s vs %s", d, o1, o2)
		}
	}
}

func TestRingDedupesMembers(t *testing.T) {
	r := NewRing([]string{"a", "b", "a", "", "b"}, 8)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (duplicates and empties dropped)", r.Len())
	}
}

// TestRingMinimalDisruption pins the consistent-hashing contract: removing
// one member reassigns only the digests that member owned, and re-adding
// it restores the original assignment exactly.
func TestRingMinimalDisruption(t *testing.T) {
	base := members(6)
	full := NewRing(base, DefaultVNodes)

	property := func(key uint64, victimIdx uint8) bool {
		victim := base[int(victimIdx)%len(base)]
		shrunk := make([]string, 0, len(base)-1)
		for _, m := range base {
			if m != victim {
				shrunk = append(shrunk, m)
			}
		}
		small := NewRing(shrunk, DefaultVNodes)

		d := digestFor(key)
		before, _ := full.Owner(d)
		after, _ := small.Owner(d)
		if before != victim && after != before {
			t.Logf("digest %s moved %s → %s though %s was removed", d, before, after, victim)
			return false
		}
		if before == victim && after == victim {
			return false // removed member must not own anything
		}
		// Rejoin restores ownership bit-exactly.
		restored, _ := NewRing(append(shrunk, victim), DefaultVNodes).Owner(d)
		return restored == before
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRingCandidatesDistinctAndOwnerFirst(t *testing.T) {
	r := NewRing(members(5), 16)
	for k := uint64(0); k < 512; k++ {
		d := digestFor(k * 0xdeadbeef12345)
		owner, _ := r.Owner(d)
		cands := r.Candidates(d, 0)
		if len(cands) != r.Len() {
			t.Fatalf("Candidates(k<=0) returned %d of %d members", len(cands), r.Len())
		}
		if cands[0] != owner {
			t.Fatalf("first candidate %s is not the owner %s", cands[0], owner)
		}
		seen := map[string]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("duplicate candidate %s for %s", c, d)
			}
			seen[c] = true
		}
		if got := r.Candidates(d, 2); len(got) != 2 || got[0] != cands[0] || got[1] != cands[1] {
			t.Fatalf("Candidates(k=2) = %v, want prefix of %v", got, cands[:2])
		}
	}
}

func TestRingOwnershipRoughlyBalanced(t *testing.T) {
	n := 5
	r := NewRing(members(n), DefaultVNodes)
	counts := map[string]int{}
	const samples = 20000
	for i := 0; i < samples; i++ {
		o, _ := r.Owner(digestFor(uint64(i) * 0x9e3779b97f4a7c15))
		counts[o]++
	}
	fair := samples / n
	for node, c := range counts {
		if c < fair/3 || c > fair*3 {
			t.Fatalf("ownership badly skewed: %s owns %d of %d (fair %d)", node, c, samples, fair)
		}
	}
}

func TestEmptyRing(t *testing.T) {
	r := NewRing(nil, 0)
	if _, ok := r.Owner("anything"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if c := r.Candidates("anything", 3); c != nil {
		t.Fatalf("empty ring returned candidates %v", c)
	}
}
