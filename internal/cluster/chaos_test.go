package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"parrot/internal/chaos"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/telemetry"
	"parrot/internal/workload"
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

// hedgeResponse builds a wire response that passes the serve client's
// result-digest verification, so fake peers can serve real payloads.
func hedgeResponse(t *testing.T) *proto.RunResponse {
	t.Helper()
	app, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	res := core.Run(config.Get(config.TON), app, 2000)
	return &proto.RunResponse{
		Digest:       experiments.RunSpec{Model: config.Get(config.TON), App: app, Insts: 2000}.Normalize().Digest(),
		Result:       res,
		ResultDigest: experiments.ResultDigest(res),
		Disposition:  "exact",
	}
}

// TestHedgeCancelReleasesLoser: when the hedge completes first, the still
// in-flight primary must be cancelled — counted by
// parrot_cluster_hedge_cancels_total — and its server-side handler must
// return promptly instead of running to completion and doubling fleet load
// under exactly the conditions that made it slow.
func TestHedgeCancelReleasesLoser(t *testing.T) {
	resp := hedgeResponse(t)
	released := make(chan struct{}, 1) // the slow handler has returned
	serve := func(delay time.Duration) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// net/http watches for a client hang-up only once the request
			// body is consumed; without this read the cancelled leg's
			// context would never end.
			io.Copy(io.Discard, r.Body)
			if delay > 0 {
				defer func() { released <- struct{}{} }()
				select {
				case <-time.After(delay):
				case <-r.Context().Done():
					return // cancelled loser: exit promptly
				}
			}
			json.NewEncoder(w).Encode(resp)
		}))
	}
	slow := serve(30 * time.Second)
	fast := serve(0)
	t.Cleanup(slow.Close)
	t.Cleanup(fast.Close)

	reg := NewRegistry(RegistryConfig{
		Self:   "http://self",
		Peers:  []string{slow.URL, fast.URL},
		VNodes: 16,
	})
	c := NewClient(reg, ClientConfig{
		Retry:    client.RetryPolicy{MaxAttempts: 2},
		HedgeMin: time.Millisecond,
		HedgeMax: 25 * time.Millisecond, // sparse samples hedge at the max
		Registry: telemetry.NewRegistry(),
	})

	// Find a digest the slow peer owns, so the hedge target is the fast one.
	ring, _ := reg.Ring()
	digest := ""
	for i := 0; i < 4096; i++ {
		d := fmt.Sprintf("cell-%d", i)
		if owner, ok := ring.Owner(d); ok && owner == slow.URL {
			digest = d
			break
		}
	}
	if digest == "" {
		t.Fatal("no digest owned by the slow peer in 4096 probes")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, info, err := c.RunRemote(ctx, proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000}, digest)
	if err != nil {
		t.Fatalf("RunRemote: %v", err)
	}
	if out.Digest != resp.Digest {
		t.Fatalf("digest = %s, want the canned cell %s", out.Digest, resp.Digest)
	}
	if !info.Hedged || !info.HedgeWon || info.Node != fast.URL {
		t.Fatalf("info = %+v, want a winning hedge served by the fast peer", info)
	}
	if got := c.hedgesWon.Value(); got != 1 {
		t.Fatalf("hedges won = %v, want 1", got)
	}
	if got := c.hedgeCancels.Value(); got != 1 {
		t.Fatalf("hedge cancels = %v, want 1 (the slow primary was still in flight)", got)
	}
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("the losing primary's handler was still running 1s after the hedge won")
	}
}
