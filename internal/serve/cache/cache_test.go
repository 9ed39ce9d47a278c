package cache

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/workload"
)

// testResult simulates one small cell (memoized per test binary via the
// machine pool and program cache).
func testResult(t testing.TB, modelID config.ModelID, app string, insts int) *core.Result {
	t.Helper()
	p, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	return core.RunWarm(config.Get(modelID), p, insts)
}

func testSpec(t testing.TB, modelID config.ModelID, app string, insts int) experiments.RunSpec {
	t.Helper()
	p, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	return experiments.RunSpec{Model: config.Get(modelID), App: p, Insts: insts}.Normalize()
}

func TestMemoryRoundTrip(t *testing.T) {
	c, err := New(Config{MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t, config.TON, "gzip", 5000)
	spec := testSpec(t, config.TON, "gzip", 5000)
	digest := spec.Digest()

	if _, ok := c.Get(digest); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Put(digest, res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(digest)
	if !ok {
		t.Fatal("no hit after Put")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("cache round-trip changed the result")
	}
	if d := experiments.ResultDigest(got); d != experiments.ResultDigest(res) {
		t.Fatalf("result digest changed through the cache: %s vs %s", d, experiments.ResultDigest(res))
	}
	st := c.Stats()
	if st.Hits != 1 || st.MemHits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 memHit / 1 miss", st)
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	res := testResult(t, config.N, "gzip", 5000)
	payload, err := encode(res)
	if err != nil {
		t.Fatal(err)
	}
	// Budget for exactly two entries.
	c, err := New(Config{MemBudget: int64(2 * len(payload))})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"aaa", "bbb", "ccc"}
	for _, k := range keys {
		if err := c.Put(k, res); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("entries = %d, want 2 (budget eviction)", c.Len())
	}
	if _, ok := c.Get("aaa"); ok {
		t.Fatal("least-recently-used entry survived over budget")
	}
	for _, k := range []string{"bbb", "ccc"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("recent entry %s evicted", k)
		}
	}
	// Touch bbb, insert ddd: ccc (now LRU) must go.
	if _, ok := c.Get("bbb"); !ok {
		t.Fatal("bbb missing")
	}
	if err := c.Put("ddd", res); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("ccc"); ok {
		t.Fatal("LRU entry ccc survived after recency update of bbb")
	}
	if _, ok := c.Get("bbb"); !ok {
		t.Fatal("recently touched bbb evicted")
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if c.Bytes() > c.Stats().Budget {
		t.Fatalf("resident bytes %d exceed budget %d", c.Bytes(), c.Stats().Budget)
	}
}

func TestDiskRoundTripAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t, config.TON, "swim", 5000)
	digest := testSpec(t, config.TON, "swim", 5000).Digest()

	c1, err := New(Config{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(digest, res); err != nil {
		t.Fatal(err)
	}

	// A fresh instance (cold memory) must serve from disk and verify.
	c2, err := New(Config{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(digest)
	if !ok {
		t.Fatal("disk entry not served by a fresh instance")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("disk round-trip changed the result")
	}
	st := c2.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("diskHits = %d, want 1", st.DiskHits)
	}
	// Promotion: the second Get is a memory hit.
	if _, ok := c2.Get(digest); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Fatalf("memHits = %d, want 1 after promotion", st.MemHits)
	}
}

// TestCorruptDiskEntriesNeverServed is the store's fault-injection table:
// every corruption mode must be detected (digest/structure mismatch), the
// entry expunged, the lookup reported as a miss — and a recompute + Put
// must repair the store. A corrupt entry is never served.
func TestCorruptDiskEntriesNeverServed(t *testing.T) {
	res := testResult(t, config.TN, "gcc", 5000)
	digest := testSpec(t, config.TN, "gcc", 5000).Digest()
	otherDigest := testSpec(t, config.TN, "gzip", 5000).Digest()

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string, valid []byte)
	}{
		{"truncated_header", func(t *testing.T, path string, valid []byte) {
			writeFile(t, path, valid[:6])
		}},
		{"truncated_mid_payload", func(t *testing.T, path string, valid []byte) {
			writeFile(t, path, valid[:len(valid)-len(valid)/3])
		}},
		{"empty_file", func(t *testing.T, path string, valid []byte) {
			writeFile(t, path, nil)
		}},
		{"bad_magic", func(t *testing.T, path string, valid []byte) {
			b := clone(valid)
			b[0] ^= 0xFF
			writeFile(t, path, b)
		}},
		{"bad_container_version", func(t *testing.T, path string, valid []byte) {
			b := clone(valid)
			b[8] ^= 0xFF // version u32 follows the 8-byte magic
			writeFile(t, path, b)
		}},
		{"stale_sim_version", func(t *testing.T, path string, valid []byte) {
			b := clone(valid)
			b[12]++ // simVer u32 follows the container version
			writeFile(t, path, b)
		}},
		{"payload_bitflip", func(t *testing.T, path string, valid []byte) {
			// Flip one byte near the end of the JSON payload: the entry still
			// parses structurally, so only the recomputed result digest can
			// catch it.
			b := clone(valid)
			b[len(b)-10] ^= 0x01
			writeFile(t, path, b)
		}},
		{"garbage", func(t *testing.T, path string, valid []byte) {
			writeFile(t, path, []byte("PARROTRCnot really a cache entry at all............"))
		}},
		{"cross_keyed_entry", func(t *testing.T, path string, valid []byte) {
			// A structurally valid entry for a different spec digest must not
			// satisfy this key (e.g. a mis-renamed file).
			payload, err := encode(res)
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, path, EncodeEntry(otherDigest, experiments.ResultDigest(res), payload))
		}},
		{"result_digest_mismatch", func(t *testing.T, path string, valid []byte) {
			payload, err := encode(res)
			if err != nil {
				t.Fatal(err)
			}
			wrong := experiments.ResultDigest(testResult(t, config.TN, "gzip", 5000))
			writeFile(t, path, EncodeEntry(digest, wrong, payload))
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(Config{MemBudget: 1 << 20, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(digest, res); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, digest+".prc")
			valid, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, path, valid)

			// Fresh instance: memory cold, disk corrupt.
			c2, err := New(Config{MemBudget: 1 << 20, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c2.Get(digest); ok {
				t.Fatal("corrupt entry was served")
			}
			st := c2.Stats()
			if st.DiskErrors != 1 {
				t.Fatalf("diskErrors = %d, want 1", st.DiskErrors)
			}
			if st.Misses != 1 {
				t.Fatalf("misses = %d, want 1", st.Misses)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not expunged")
			}

			// Recompute-and-repair: the caller recomputes, Puts, and the
			// store verifies again.
			if err := c2.Put(digest, res); err != nil {
				t.Fatal(err)
			}
			c3, err := New(Config{MemBudget: 1 << 20, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			got, ok := c3.Get(digest)
			if !ok {
				t.Fatal("repaired entry not served")
			}
			if !reflect.DeepEqual(got, res) {
				t.Fatal("repaired entry differs from the recomputed result")
			}
		})
	}
}

func TestAtomicWriteLeavesNoTempVisible(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t, config.N, "swim", 5000)
	for i := 0; i < 4; i++ {
		if err := c.Put(testSpec(t, config.N, "swim", 5000+i).Digest(), res); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".prc" {
			t.Fatalf("unexpected non-entry file %q left behind", e.Name())
		}
	}
	if len(ents) != 4 {
		t.Fatalf("entries on disk = %d, want 4", len(ents))
	}
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// TestReplicaStaysInMemory: a replica is served from memory but never
// written to disk, so a fresh instance over the same directory cannot
// find it. A Put of the same digest promotes it to an owned, persisted
// entry.
func TestReplicaStaysInMemory(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t, config.TON, "gzip", 5000)
	spec := testSpec(t, config.TON, "gzip", 5000)
	digest := spec.Digest()
	resDigest := experiments.ResultDigest(res)

	c.PutReplica(digest, resDigest, res)
	got, gotDigest, ok := c.GetMem(context.Background(), digest)
	if !ok || gotDigest != resDigest || !reflect.DeepEqual(got, res) {
		t.Fatalf("replica lookup: ok=%v digest=%.12s, want the stored cell %.12s", ok, gotDigest, resDigest)
	}
	if st := c.Stats(); st.Replicas != 1 || st.Puts != 0 || st.DiskPuts != 0 {
		t.Fatalf("stats = %+v, want 1 replica and no puts", st)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("replica reached disk: %d files", len(ents))
	}
	fresh, err := New(Config{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(digest); ok {
		t.Fatal("a fresh instance found the replica")
	}

	if err := c.Put(digest, res); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Replicas != 0 || st.Entries != 1 || st.DiskPuts != 1 {
		t.Fatalf("after Put: stats = %+v, want one owned entry on disk", st)
	}
}

// TestReplicasEvictedBeforeOwned: under budget pressure every replica goes
// before any owned entry, however recently the replica was used — and a
// replica that does not fit beside the owned entries evicts itself.
func TestReplicasEvictedBeforeOwned(t *testing.T) {
	res := testResult(t, config.N, "gzip", 5000)
	resDigest := experiments.ResultDigest(res)
	payload, err := encode(res)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{MemBudget: int64(3 * len(payload))})
	if err != nil {
		t.Fatal(err)
	}
	mustPut := func(k string) {
		t.Helper()
		if err := c.Put(k, res); err != nil {
			t.Fatal(err)
		}
	}
	resident := func(keys ...string) {
		t.Helper()
		for _, k := range keys {
			c.mu.Lock()
			_, ok := c.entries[k]
			c.mu.Unlock()
			if !ok {
				t.Fatalf("%s evicted", k)
			}
		}
	}

	mustPut("own-a")
	mustPut("own-b")
	c.PutReplica("rep-1", resDigest, res)
	if _, ok := c.Get("rep-1"); !ok { // the replica is now the most recent entry
		t.Fatal("replica missing")
	}
	mustPut("own-c")
	resident("own-a", "own-b", "own-c")
	if _, ok := c.Get("rep-1"); ok {
		t.Fatal("an owned insert evicted an owned entry while a replica was resident")
	}

	// The cache is full of owned entries: a new replica cannot displace
	// any of them.
	c.PutReplica("rep-2", resDigest, res)
	resident("own-a", "own-b", "own-c")
	if st := c.Stats(); st.Replicas != 0 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want no replicas and 2 evictions", st)
	}

	// A replica that fits beside the owned entries stays; further replicas
	// displace the least recent replica, never an owned entry.
	c.mu.Lock()
	c.budget = int64(5 * len(payload))
	c.mu.Unlock()
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("rep-x%d", i)
		c.PutReplica(k, resDigest, res)
		resident("own-a", "own-b", "own-c", k)
		if st := c.Stats(); st.Replicas != min(i+1, 2) {
			t.Fatalf("after %s: %d replicas resident, want %d", k, st.Replicas, min(i+1, 2))
		}
	}
	resident("rep-x6", "rep-x7")
	if c.Bytes() > c.Stats().Budget {
		t.Fatalf("resident bytes %d exceed budget %d", c.Bytes(), c.Stats().Budget)
	}
}

// TestGetHandsOutCopies: memory entries are decoded values, and every Get
// returns the caller's own copy — mutating it, or the result handed to
// Put, changes nothing the cache serves later.
func TestGetHandsOutCopies(t *testing.T) {
	c, err := New(Config{MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t, config.TON, "swim", 5000)
	want := *res
	put := *res
	if err := c.Put("own", &put); err != nil {
		t.Fatal(err)
	}
	rep := *res
	c.PutReplica("rep", experiments.ResultDigest(res), &rep)
	put.Cycles, rep.Cycles = 0, 0

	for _, k := range []string{"own", "rep"} {
		got, ok := c.Get(k)
		if !ok {
			t.Fatalf("%s missing", k)
		}
		got.Cycles++
		got.Breakdown[0] = -1
		got.Counts[0] = 7
		again, _ := c.Get(k)
		if !reflect.DeepEqual(*again, want) {
			t.Fatalf("%s: a mutated Get result leaked into the cache", k)
		}
	}
}

// TestDiskPromotionKeepsStoredDigest: an entry promoted from disk is held
// decoded, and a memory hit on it reports the result digest stored on
// disk, which matches the decoded result.
func TestDiskPromotionKeepsStoredDigest(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t, config.TOW, "gcc", 5000)
	digest := testSpec(t, config.TOW, "gcc", 5000).Digest()
	c1, err := New(Config{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(digest, res); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, digest+".prc"))
	if err != nil {
		t.Fatal(err)
	}
	_, stored, _, err := DecodeEntry(raw)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := New(Config{MemBudget: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(digest); !ok {
		t.Fatal("disk entry not promoted")
	}
	got, gotDigest, ok := c2.GetMem(context.Background(), digest)
	if !ok {
		t.Fatal("promoted entry not in memory")
	}
	if gotDigest != stored || experiments.ResultDigest(got) != stored {
		t.Fatalf("promoted digest %.12s, decoded %.12s, stored %.12s",
			gotDigest, experiments.ResultDigest(got), stored)
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.MemHits != 1 || st.Replicas != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit then 1 memory hit on an owned entry", st)
	}
}

// TestDecodeEntryChecksLengthBeforeAllocating: a payload length larger
// than the entry is rejected without allocating a buffer of that size.
func TestDecodeEntryChecksLengthBeforeAllocating(t *testing.T) {
	raw := EncodeEntry(strings.Repeat("a", 64), strings.Repeat("b", 64), nil)
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], 0xFFFFFFFF)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := DecodeEntry(raw)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 4 GiB payload length in a short entry decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the entry allocated %d bytes", grew)
	}
}
