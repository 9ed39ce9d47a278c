package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/workload"
)

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	return p
}

// TestRunSpecDigestGolden pins the content-address scheme of the serving
// layer. The digest is a function of SimVersion, the complete resolved
// model configuration, the complete workload profile and the normalized
// instruction budget. If this value moves, every cache entry in every
// deployed parrotd invalidates — which is correct when simulation
// semantics changed (bump SimVersion consciously), and a bug when a
// refactor reordered a struct field or altered the canonical encoding by
// accident. Treat a mismatch exactly like the matrix golden-digest test.
func TestRunSpecDigestGolden(t *testing.T) {
	const want = "29195865d17d464ac956e3e3f2dfd5befa35fc509c599932f931b21dc9b6126d"
	spec := RunSpec{Model: config.Get(config.TON), App: mustProfile(t, "swim"), Insts: 50_000}
	if got := spec.Digest(); got != want {
		t.Fatalf("RunSpec digest changed:\n got  %s\n want %s\n"+
			"If simulation semantics or the spec encoding changed intentionally, bump SimVersion and update this constant.", got, want)
	}
}

func TestRunSpecDigestStability(t *testing.T) {
	spec := RunSpec{Model: config.Get(config.TON), App: mustProfile(t, "gzip"), Insts: 10_000}
	d1 := spec.Digest()
	d2 := spec.Digest()
	if d1 != d2 {
		t.Fatalf("digest unstable across calls: %s vs %s", d1, d2)
	}
	if len(d1) != 64 {
		t.Fatalf("digest %q is not hex SHA-256", d1)
	}
}

// TestRunSpecNormalization: Insts<=0 means "profile default" everywhere in
// the simulator, so the zero spec and the explicit-default spec must share
// one content address — otherwise the cache would compute the same cell
// twice under two keys.
func TestRunSpecNormalization(t *testing.T) {
	p := mustProfile(t, "swim")
	zero := RunSpec{Model: config.Get(config.N), App: p, Insts: 0}
	explicit := RunSpec{Model: config.Get(config.N), App: p, Insts: p.Instructions}
	if zero.Digest() != explicit.Digest() {
		t.Fatal("default-insts spec and explicit-default spec hash differently")
	}
	if n := zero.Normalize().Insts; n != p.Instructions {
		t.Fatalf("Normalize().Insts = %d, want %d", n, p.Instructions)
	}
}

// TestRunSpecDigestSensitivity: any input that changes what a run computes
// must change the address — including a perturbed model parameter under an
// unchanged model ID, the sensitivity-sweep case that rules out hashing
// only the ID.
func TestRunSpecDigestSensitivity(t *testing.T) {
	base := RunSpec{Model: config.Get(config.TON), App: mustProfile(t, "gzip"), Insts: 10_000}
	baseD := base.Digest()

	otherModel := base
	otherModel.Model = config.Get(config.TOS)
	otherApp := base
	otherApp.App = mustProfile(t, "swim")
	otherInsts := base
	otherInsts.Insts = 20_000
	tweaked := base
	tweaked.Model.BlazeThreshold = base.Model.BlazeThreshold + 1 // same ID, different knob

	for name, s := range map[string]RunSpec{
		"model":            otherModel,
		"app":              otherApp,
		"insts":            otherInsts,
		"perturbed_config": tweaked,
	} {
		if s.Digest() == baseD {
			t.Errorf("%s change did not move the digest", name)
		}
	}
}

// TestRunSpecDigestMatchesEncoding: the memoized digest equals the
// canonical encoding hashed from scratch — for every model ×
// application pair, across budgets, and for a perturbed model that shares
// an ID with a pair already memoized.
func TestRunSpecDigestMatchesEncoding(t *testing.T) {
	hashOf := func(s RunSpec) string {
		h := sha256.New()
		wu64(h, SimVersion)
		mb, _ := json.Marshal(s.Model)
		pb, _ := json.Marshal(s.App)
		wbytes(h, mb)
		wbytes(h, pb)
		wu64(h, uint64(s.Normalize().Insts))
		return hex.EncodeToString(h.Sum(nil))
	}
	check := func(s RunSpec) {
		t.Helper()
		for i := 0; i < 2; i++ { // first call fills the memo, second reads it
			if got, want := s.Digest(), hashOf(s); got != want {
				t.Fatalf("%s/%s/%d: digest %.12s, canonical %.12s", s.Model.ID, s.App.Name, s.Insts, got, want)
			}
		}
	}
	for _, m := range config.All() {
		for _, p := range workload.Apps() {
			for _, n := range []int{0, 7_000} {
				check(RunSpec{Model: m, App: p, Insts: n})
			}
		}
	}
	tweaked := RunSpec{Model: config.Get(config.TON), App: mustProfile(t, "gzip"), Insts: 7_000}
	tweaked.Model.OptConfig.Simd = !tweaked.Model.OptConfig.Simd
	check(tweaked)
}

// TestResultDigestSensitivity: the per-cell result digest must react to
// any deterministic field — it is the corruption detector of the disk
// cache and the client's transport-integrity check.
func TestResultDigestSensitivity(t *testing.T) {
	res := core.RunWarm(config.Get(config.TON), mustProfile(t, "gzip"), 5000)
	base := ResultDigest(res)

	mutations := map[string]func(r *core.Result){
		"cycles":     func(r *core.Result) { r.Cycles++ },
		"insts":      func(r *core.Result) { r.Insts++ },
		"energy":     func(r *core.Result) { r.DynEnergy *= 1.0000001 },
		"breakdown":  func(r *core.Result) { r.Breakdown[0] += 1e-9 },
		"mispredict": func(r *core.Result) { r.BranchStats.Mispredicts++ },
		"counts":     func(r *core.Result) { r.Counts[0]++ },
	}
	for name, mutate := range mutations {
		cp := *res
		mutate(&cp)
		if ResultDigest(&cp) == base {
			t.Errorf("%s mutation did not move the result digest", name)
		}
	}
	if ResultDigest(res) != base {
		t.Fatal("result digest unstable on an unmutated result")
	}
}

// TestResultDigestConsistentWithMatrixDigest: hashing cells individually
// and hashing the matrix must agree on content — two identical matrices
// have identical cell digests and identical matrix digests, and a
// single-cell difference moves both.
func TestResultDigestConsistentWithMatrixDigest(t *testing.T) {
	apps := []workload.Profile{mustProfile(t, "gzip"), mustProfile(t, "swim")}
	models := []config.Model{config.Get(config.N), config.Get(config.TON)}
	a := Run(Config{Models: models, Apps: apps, Insts: 10_000})
	b := Run(Config{Models: models, Apps: apps, Insts: 10_000})
	if a.Digest() != b.Digest() {
		t.Fatal("identical runs: matrix digests differ")
	}
	for _, m := range models {
		for _, p := range apps {
			da := ResultDigest(a.Get(m.ID, p.Name))
			db := ResultDigest(b.Get(m.ID, p.Name))
			if da != db {
				t.Fatalf("identical runs: cell %s/%s digests differ", m.ID, p.Name)
			}
		}
	}
}
