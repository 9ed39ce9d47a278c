package api

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"parrot/internal/cluster"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/cache"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/serve/sched"
	"parrot/internal/telemetry"
	"parrot/internal/testutil"
)

// metric reads one series off a node's /metricsz.
func metric(t *testing.T, c *client.Client, series string) float64 {
	t.Helper()
	m, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.Get(series)
	return v
}

// requestSpans fetches a request's spans once its root span has landed
// (the middleware records http.request after the response is written).
func requestSpans(t *testing.T, c *client.Client, id string) []telemetry.Span {
	t.Helper()
	var spans []telemetry.Span
	landed := testutil.Await(func() bool {
		doc, err := c.TraceSpans(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		spans = doc.Spans
		for _, sp := range spans {
			if sp.Name == "http.request" {
				return true
			}
		}
		return false
	})
	if !landed {
		t.Fatalf("request %s never recorded its http.request span", id)
	}
	return spans
}

// assertSpanNames fails unless the spans carry exactly the given names,
// each once.
func assertSpanNames(t *testing.T, spans []telemetry.Span, want ...string) {
	t.Helper()
	seen := map[string]int{}
	for _, sp := range spans {
		seen[sp.Name]++
	}
	for _, name := range want {
		if seen[name] != 1 {
			t.Fatalf("span %q appears %d times, want once; spans %v", name, seen[name], names(spans))
		}
	}
	if len(spans) != len(want) {
		t.Fatalf("spans %v, want exactly %v", names(spans), want)
	}
}

// TestClusterRepeatRunServedFromReplica: the first /v1/run for a
// peer-owned cell is forwarded; a repeat through the same coordinator is a
// cache hit served by the coordinator itself, without another forward,
// and records one cache.get span and nothing else below http.request.
func TestClusterRepeatRunServedFromReplica(t *testing.T) {
	nodes := testCluster(t, 2, nil)
	ctx := context.Background()
	coord, owner := nodes[0], nodes[1]

	model, app, digest := cellOwnedBy(t, coord, owner.url, 3000)
	req := proto.RunRequest{Model: model, App: app, Insts: 3000}
	first, err := coord.c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Node != owner.url {
		t.Fatalf("first run served by %q, want the owner %s", first.Node, owner.url)
	}
	assertSpanNames(t, requestSpans(t, coord.c, first.RequestID), "http.request", "cache.get", "cluster.forward")
	forwards := metric(t, coord.c, `parrot_cluster_forwards_total{outcome="ok"}`)
	if forwards != 1 {
		t.Fatalf("forwards ok = %g after the first run, want 1", forwards)
	}

	repeat, err := coord.c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached || repeat.Node != coord.url || repeat.Disposition != sched.DispCacheHit.String() {
		t.Fatalf("repeat: cached=%v node=%q disposition=%q, want a hit on the coordinator %s",
			repeat.Cached, repeat.Node, repeat.Disposition, coord.url)
	}
	if repeat.Digest != digest || repeat.ResultDigest != first.ResultDigest {
		t.Fatalf("repeat answered %.12s/%.12s, want %.12s/%.12s",
			repeat.Digest, repeat.ResultDigest, digest, first.ResultDigest)
	}
	if got := metric(t, coord.c, `parrot_cluster_forwards_total{outcome="ok"}`); got != forwards {
		t.Fatalf("forwards ok moved from %g to %g on a repeat run", forwards, got)
	}
	if got := metric(t, coord.c, `parrot_cluster_route_total{dest="replica"}`); got != 1 {
		t.Fatalf("replica routes = %g, want 1", got)
	}
	assertSpanNames(t, requestSpans(t, coord.c, repeat.RequestID), "http.request", "cache.get")

	// The replica stays out of the owner's way: the coordinator holds it
	// in memory only, the owner still holds the owned copy.
	if st := coord.ca.Stats(); st.Replicas != 1 {
		t.Fatalf("coordinator replicas = %d, want 1", st.Replicas)
	}
	if st := owner.ca.Stats(); st.Replicas != 0 || st.Entries != 1 {
		t.Fatalf("owner cache: %d entries, %d replicas; want 1 owned entry", st.Entries, st.Replicas)
	}
}

// TestClusterRescueProbesCacheOnce: with the owner dead, the coordinator's
// replica lookup misses, the forward fails and the cell is rescued
// locally — and the rescue does not probe the cache a second time.
func TestClusterRescueProbesCacheOnce(t *testing.T) {
	nodes := testCluster(t, 2, nil)
	ctx := context.Background()
	coord, owner := nodes[0], nodes[1]

	model, app, _ := cellOwnedBy(t, coord, owner.url, 2500)
	owner.kill()
	resp, err := coord.c.Run(ctx, proto.RunRequest{Model: model, App: app, Insts: 2500})
	if err != nil {
		t.Fatalf("run with a dead owner: %v", err)
	}
	if resp.Node != coord.url || resp.Cached {
		t.Fatalf("rescue: node=%q cached=%v, want a fresh run on %s", resp.Node, resp.Cached, coord.url)
	}
	assertSpanNames(t, requestSpans(t, coord.c, resp.RequestID),
		"http.request", "cache.get", "cluster.forward", "sched.submit", "sched.wait",
		"sched.queued", "machine.checkout", "sim.run", "cache.put")
}

// TestClusterForwardsStoredOnlyWhenExact: a forwarded answer becomes a
// replica only when it is the requested cell itself. An answer marked
// Degraded (even one naming the requested digest), one stored
// under another digest, or one whose ResultDigest the client could not
// verify is passed on but not kept, so the repeat request is forwarded
// again.
func TestClusterForwardsStoredOnlyWhenExact(t *testing.T) {
	cases := []struct {
		name   string
		alter  func(r *proto.RunResponse, other string)
		stored bool
	}{
		{"exact", func(*proto.RunResponse, string) {}, true},
		{"degraded", func(r *proto.RunResponse, _ string) {
			r.Degraded, r.RequestedDigest = true, r.Digest
		}, false},
		{"digest_mismatch", func(r *proto.RunResponse, other string) { r.Digest = other }, false},
		{"unverified", func(r *proto.RunResponse, _ string) { r.ResultDigest = "" }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				peerRuns atomic.Int64
				body     proto.RunResponse // set before the first request
			)
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				peerRuns.Add(1)
				json.NewEncoder(w).Encode(body)
			}))
			t.Cleanup(peer.Close)

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			self := "http://" + ln.Addr().String()
			ca, err := cache.New(cache.Config{MemBudget: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			sc := sched.New(sched.Config{Workers: 1, Cache: ca, Pool: core.NewPool(), Registry: reg})
			cl := cluster.New(cluster.Config{Advertise: self, Peers: []string{self, peer.URL}, VNodes: 32, Registry: reg})
			hs := &httptest.Server{Listener: ln, Config: &http.Server{Handler: New(Config{Cache: ca, Sched: sc, Registry: reg, Cluster: cl}).Handler()}}
			hs.Start()
			t.Cleanup(func() {
				hs.Close()
				sc.Drain(context.Background())
			})

			// The peer answers a cell it owns with a canned, correctly
			// digested result, altered per case.
			model, app, digest := cellOwnedBy(t, &clusterNode{cl: cl}, peer.URL, 2000)
			spec, err := resolveSpec(model, app, 2000)
			if err != nil {
				t.Fatal(err)
			}
			res := core.Run(spec.Model, spec.App, spec.Insts)
			body = proto.RunResponse{
				Digest:       digest,
				Cached:       true,
				Disposition:  "hit",
				ResultDigest: experiments.ResultDigest(res),
				Result:       res,
				Node:         peer.URL,
			}
			tc.alter(&body, experiments.RunSpec{Model: spec.Model, App: spec.App, Insts: 1000}.Digest())

			c := client.New(self)
			req := proto.RunRequest{Model: model, App: app, Insts: 2000}
			for i := 0; i < 2; i++ {
				if _, err := c.Run(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}
			wantRuns := int64(2)
			if tc.stored {
				wantRuns = 1
			}
			if got := peerRuns.Load(); got != wantRuns {
				t.Fatalf("peer answered %d runs, want %d", got, wantRuns)
			}
			if st := ca.Stats(); (st.Replicas == 1) != tc.stored || st.Entries != st.Replicas {
				t.Fatalf("coordinator cache: %d entries, %d replicas; stored=%v", st.Entries, st.Replicas, tc.stored)
			}
		})
	}
}
