package cluster

import (
	"testing"
	"time"

	"parrot/internal/chaos"
)

// mustRules parses a chaos spec or fails the test.
func mustRules(t *testing.T, spec string) []chaos.Rule {
	t.Helper()
	rules, err := chaos.Parse(spec)
	if err != nil {
		t.Fatalf("chaos.Parse(%q): %v", spec, err)
	}
	return rules
}

// TestPartitionMaskDemotesPeer: a chaos partition masking the n1→n2 link
// must walk n2 through the full failure-detector lifecycle — suspect after
// SuspectAfter probes, dead (and out of the ring) after DeadAfter — while
// the unmasked n3 stays alive. The mask is stable per (seed, site, pair),
// so the run is fully deterministic.
func TestPartitionMaskDemotesPeer(t *testing.T) {
	inj := chaos.New(7, mustRules(t, "site=cluster.partition p=1 match=->http://n2"))
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	r := NewRegistry(RegistryConfig{
		Self:          "http://n1",
		Peers:         []string{"http://n2", "http://n3"},
		VNodes:        16,
		ProbeInterval: time.Second,
		SuspectAfter:  2,
		DeadAfter:     5 * time.Second,
		Jitter:        0.001,
		Chaos:         inj,
		Now:           clk.Now,
	})

	step(r, clk)
	step(r, clk)
	if st := r.StateOf("http://n2"); st != StateSuspect {
		t.Fatalf("n2 state after %d masked probes = %v, want suspect", 2, st)
	}
	if st := r.StateOf("http://n3"); st != StateAlive {
		t.Fatalf("n3 state = %v, want alive (link n1→n3 is not masked)", st)
	}

	clk.Advance(5 * time.Second)
	step(r, clk)
	if st := r.StateOf("http://n2"); st != StateDead {
		t.Fatalf("n2 state after DeadAfter under the mask = %v, want dead", st)
	}
	ring, _ := r.Ring()
	if ring.Len() != 2 {
		t.Fatalf("ring has %d members with n2 dead, want 2", ring.Len())
	}
	if _, ok := ring.Owner("anything"); !ok {
		t.Fatal("shrunken ring cannot route")
	}

	// The healthy peer accumulated clean probes the whole time.
	for _, n := range r.Snapshot() {
		if n.ID == "http://n3" && (n.Probes == 0 || n.Fails != 0) {
			t.Fatalf("n3 = %+v, want probed and never failing", n)
		}
	}
}

// TestClockSkewFiresProbesEarly: chaos site "cluster.clock" shifts the
// registry's view of now, so a skewed node probes peers whose jittered
// deadlines have not actually arrived — exactly how a fast-drifting host
// misbehaves. The control registry with no chaos probes nothing.
func TestClockSkewFiresProbesEarly(t *testing.T) {
	boot := time.Unix(1_700_000_000, 0)
	build := func(inj *chaos.Injector) *Registry {
		return NewRegistry(RegistryConfig{
			Self:          "http://n1",
			Peers:         []string{"http://n2", "http://n3"},
			VNodes:        16,
			ProbeInterval: time.Second,
			Jitter:        0.001,
			Chaos:         inj,
			Now:           func() time.Time { return boot },
		})
	}

	control := build(nil)
	control.Tick(boot)
	for _, n := range control.Snapshot() {
		if n.Probes != 0 {
			t.Fatalf("control probed %s before its interval elapsed", n.ID)
		}
	}

	skewed := build(chaos.New(7, mustRules(t, "site=cluster.clock p=1 skew=1h")))
	skewed.Tick(boot)
	for _, n := range skewed.Snapshot() {
		if n.Self {
			continue
		}
		if n.Probes != 1 {
			t.Fatalf("skewed clock: %s probes = %d, want 1 (an hour of skew makes every deadline due)", n.ID, n.Probes)
		}
	}
}
