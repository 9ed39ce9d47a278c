package experiments

import (
	"testing"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/workload"
)

// appsByName resolves a list of application names to profiles.
func appsByName(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	apps := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown app %s", n)
		}
		apps = append(apps, p)
	}
	return apps
}

// goldenMatrixDigest50k is the SHA-256 of the full 44-application × 7-model
// result matrix at 50k instructions per application, captured on the
// poll-everything engine before the event-driven kernel rewrite (PR 2). The
// event-driven engine — time-wheel writeback, dependency-driven wakeup,
// idle-cycle fast-forward — must reproduce it bit-identically.
//
// Only an intentional modelling change may update this constant (the failing
// test prints the recomputed value).
const goldenMatrixDigest50k = "a0aa44d4ebd74e3cde45c183a8df6e3bdf13204d30c17f779a8c452678846a9a"

// TestMatrixGoldenDigest recomputes the full 44×7 matrix digest and compares
// it against the committed golden value: the determinism gate that makes
// aggressive kernel rewrites shippable. All seven models and all 44
// applications are covered.
func TestMatrixGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full 44×7 matrix in -short mode")
	}
	res := Run(Config{Insts: 50_000})
	if len(res.Models()) != 7 {
		t.Fatalf("models = %d, want 7", len(res.Models()))
	}
	if len(res.Apps()) != 44 {
		t.Fatalf("apps = %d, want 44", len(res.Apps()))
	}
	got := res.Digest()
	if got != goldenMatrixDigest50k {
		t.Fatalf("matrix digest diverged from golden:\n got  %s\n want %s\n"+
			"the simulation kernel no longer reproduces the committed matrix bit-identically",
			got, goldenMatrixDigest50k)
	}
}

// TestDigestIndependentOfParallelism pins the digest's determinism across
// worker counts: the lock-free dense result matrix must yield the same bytes
// no matter how jobs are scheduled. With one application, every worker
// beyond the first contends for the same selection log while it is being
// recorded.
func TestDigestIndependentOfParallelism(t *testing.T) {
	for _, roster := range [][]string{{"gzip", "swim"}, {"gzip"}} {
		apps := appsByName(t, roster...)
		want := Run(Config{Insts: 20_000, Apps: apps, Parallelism: 1}).Digest()
		for _, par := range []int{2, 8} {
			if got := Run(Config{Insts: 20_000, Apps: apps, Parallelism: par}).Digest(); got != want {
				t.Fatalf("%v: digest at parallelism %d differs from parallelism 1: %s vs %s",
					roster, par, got, want)
			}
		}
	}
}

// TestMatrixRepeatDigestStable: a second pass over the same configuration
// runs on machines the first pass returned to the pool, and must digest
// identically. Reset is what makes a reused machine indistinguishable from
// a fresh one; this pins it at matrix level.
func TestMatrixRepeatDigestStable(t *testing.T) {
	apps := appsByName(t, "gzip", "swim", "flash", "word")
	models := []config.Model{config.Get(config.N), config.Get(config.TON)}
	cfg := Config{Insts: 12_000, Apps: apps, Models: models}

	first := Run(cfg).Digest()
	reuses := core.DefaultPool.Stats().Reuses
	second := Run(cfg).Digest()
	if core.DefaultPool.Stats().Reuses == reuses {
		t.Fatal("second pass drew no pooled machine; the test needs reused machines")
	}
	if first != second {
		t.Fatalf("repeated matrix pass changed the digest: %s vs %s", first, second)
	}
}
