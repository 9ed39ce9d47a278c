package api

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"parrot/internal/cluster"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/cache"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/serve/sched"
	"parrot/internal/telemetry"
	"parrot/internal/workload"
)

// clusterNode is one full parrotd stack inside a multi-node test cluster.
type clusterNode struct {
	url string
	hs  *httptest.Server
	ca  *cache.Cache
	sc  *sched.Sched
	cl  *cluster.Cluster
	c   *client.Client
}

// kill severs the node's HTTP surface, simulating a crashed process. Its
// membership entry survives on the peers (no probe loop runs in tests), so
// routing must discover the death from traffic and recover.
func (n *clusterNode) kill() { n.hs.Close() }

// testCluster boots n complete nodes — cache, scheduler, cluster layer,
// HTTP surface — on pre-bound listeners so every node knows the full
// advertise list before its cluster layer is built, exactly as parrotd's
// -peers flag provides it. The membership probe loop is NOT started:
// tests drive state through traffic (passive reports), keeping them
// deterministic.
func testCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		ca, err := cache.New(cache.Config{MemBudget: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		sc := sched.New(sched.Config{Workers: 2, Cache: ca, Pool: core.NewPool(), Registry: reg})
		cl := cluster.New(cluster.Config{
			Advertise: urls[i],
			Peers:     urls,
			VNodes:    32,
			Registry:  reg,
			Client: cluster.ClientConfig{Retry: client.RetryPolicy{
				MaxAttempts: 3,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  5 * time.Millisecond,
			}},
		})
		srv := New(Config{Cache: ca, Sched: sc, Registry: reg, Cluster: cl})
		hs := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: srv.Handler()}}
		hs.Start()
		nodes[i] = &clusterNode{url: urls[i], hs: hs, ca: ca, sc: sc, cl: cl, c: client.New(urls[i])}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.hs.Close()
			nd.sc.Drain(context.Background())
		}
	})
	return nodes
}

// cellOwnedBy finds a (model, app) cell whose digest the ring assigns to
// owner. The search space (7 models × a few apps) always contains one for
// any member of a small ring.
func cellOwnedBy(t *testing.T, nd *clusterNode, owner string, insts int) (model, app, digest string) {
	t.Helper()
	for _, m := range []string{"N", "TN", "TON", "W", "TW", "TOW", "TOS"} {
		for _, a := range []string{"gzip", "swim", "gcc", "bzip", "crafty"} {
			spec, err := resolveSpec(m, a, insts)
			if err != nil {
				t.Fatal(err)
			}
			d := spec.Digest()
			if o, _ := nd.cl.Owner(d); o == owner {
				return m, a, d
			}
		}
	}
	t.Fatalf("no cell owned by %s in the probe set", owner)
	return "", "", ""
}

// TestClusterForwardAndHopGuard: a run posted to a non-owner is proxied to
// its ring owner exactly once (the hop guard stops re-forwarding), and the
// response says which node actually served it.
func TestClusterForwardAndHopGuard(t *testing.T) {
	nodes := testCluster(t, 2)
	ctx := context.Background()

	model, app, digest := cellOwnedBy(t, nodes[0], nodes[1].url, 3000)
	resp, err := nodes[0].c.Run(ctx, proto.RunRequest{Model: model, App: app, Insts: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Node != nodes[1].url {
		t.Fatalf("cell owned by %s served by %q", nodes[1].url, resp.Node)
	}
	if resp.Digest != digest {
		t.Fatalf("digest %s, want %s", resp.Digest, digest)
	}

	// The owner cached it: asking the owner directly is a hit served
	// locally — ownership and cache placement agree.
	direct, err := nodes[1].c.Run(ctx, proto.RunRequest{Model: model, App: app, Insts: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Cached || direct.Node != nodes[1].url {
		t.Fatalf("owner re-serve: cached=%v node=%q, want hit on %s", direct.Cached, direct.Node, nodes[1].url)
	}

	// Forward + hop-guard counters on the respective nodes.
	m0, err := nodes[0].c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m0.Get(`parrot_cluster_forwards_total{outcome="ok"}`); v < 1 {
		t.Fatalf("coordinator forwards ok = %g, want >= 1", v)
	}
	m1, err := nodes[1].c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m1.Get("parrot_cluster_hop_guard_total"); v < 1 {
		t.Fatalf("owner hop-guard stops = %g, want >= 1", v)
	}
}

// TestClusterMatrixDigestAndOwnership is the cluster's bit-exactness proof:
// a matrix scattered over three nodes reassembles to the same canonical
// digest as an in-process experiments.Run, every cell is served by its ring
// owner while all nodes are healthy, and a warm second pass through a
// different coordinator is all cache hits.
func TestClusterMatrixDigestAndOwnership(t *testing.T) {
	nodes := testCluster(t, 3)
	ctx := context.Background()

	modelIDs := []string{"N", "TON"}
	appNames := []string{"gzip", "swim", "gcc"}
	const insts = 10_000

	resp, err := nodes[0].c.Matrix(ctx, proto.MatrixRequest{
		Models: modelIDs, Apps: appNames, Insts: insts,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalCells != len(modelIDs)*len(appNames) {
		t.Fatalf("totalCells = %d, want %d", resp.TotalCells, len(modelIDs)*len(appNames))
	}

	// Healthy ring: every cell is stamped with — and was executed by — its
	// ring owner, so each cache entry lives on exactly one node.
	remote := 0
	for _, cell := range resp.Cells {
		owner, _ := nodes[0].cl.Owner(cell.Digest)
		if cell.Node != owner {
			t.Fatalf("cell %s/%s served by %q, ring owner is %s", cell.Model, cell.App, cell.Node, owner)
		}
		if cell.Node != nodes[0].url {
			remote++
		}
	}
	t.Logf("matrix scatter: %d/%d cells executed remotely", remote, resp.TotalCells)

	// Bit-exactness against the in-process reference.
	var models []config.Model
	for _, id := range modelIDs {
		models = append(models, config.Get(config.ModelID(id)))
	}
	var apps []workload.Profile
	for _, name := range appNames {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown app %s", name)
		}
		apps = append(apps, p)
	}
	local := experiments.Run(experiments.Config{Models: models, Apps: apps, Insts: insts})
	if resp.Digest != local.Digest() {
		t.Fatalf("cluster matrix digest %s != in-process digest %s", resp.Digest, local.Digest())
	}

	// Warm pass through a different coordinator: the ring sends each cell
	// to the node that cached it, so everything is a hit.
	resp2, err := nodes[1].c.Matrix(ctx, proto.MatrixRequest{
		Models: modelIDs, Apps: appNames, Insts: insts,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.CachedCells != resp2.TotalCells {
		t.Fatalf("warm pass: %d/%d cells cached, want all", resp2.CachedCells, resp2.TotalCells)
	}
	if resp2.Digest != resp.Digest {
		t.Fatal("warm-pass digest differs from cold-pass digest")
	}
}

// TestClusterRunRescuedAfterOwnerDeath: a /v1/run for a digest whose owner
// is dead still succeeds — the coordinator fails over or rescues the cell
// locally — and is never served by the dead node.
func TestClusterRunRescuedAfterOwnerDeath(t *testing.T) {
	nodes := testCluster(t, 3)
	ctx := context.Background()

	victim := nodes[2]
	model, app, _ := cellOwnedBy(t, nodes[0], victim.url, 4000)
	victim.kill()

	resp, err := nodes[0].c.Run(ctx, proto.RunRequest{Model: model, App: app, Insts: 4000})
	if err != nil {
		t.Fatalf("run with dead owner: %v", err)
	}
	if resp.Result == nil {
		t.Fatal("no result")
	}
	if resp.Node == victim.url {
		t.Fatalf("response claims the dead node %s served it", victim.url)
	}
}

// TestClusterMatrixSurvivesNodeDeath is the fan-out's fault-tolerance gate
// at test scale: with one node dead (still in the ring — no probes run),
// a matrix completes with zero failed cells, reproduces the in-process
// digest, and records recoveries for the dead node's cells.
func TestClusterMatrixSurvivesNodeDeath(t *testing.T) {
	nodes := testCluster(t, 3)
	ctx := context.Background()

	modelIDs := []string{"N", "TON"}
	appNames := []string{"gzip", "swim", "gcc", "bzip"}
	const insts = 8000

	// Pick a victim that owns at least one matrix cell, so death is
	// guaranteed to be on the routing path.
	victim := ""
	for _, m := range modelIDs {
		for _, a := range appNames {
			spec, err := resolveSpec(m, a, insts)
			if err != nil {
				t.Fatal(err)
			}
			if o, self := nodes[0].cl.Owner(spec.Digest()); !self {
				victim = o
			}
		}
	}
	if victim == "" {
		t.Skip("coordinator owns every cell in this tiny matrix")
	}
	for _, nd := range nodes {
		if nd.url == victim {
			nd.kill()
		}
	}

	resp, err := nodes[0].c.Matrix(ctx, proto.MatrixRequest{
		Models: modelIDs, Apps: appNames, Insts: insts,
	}, nil)
	if err != nil {
		t.Fatalf("matrix with a dead node: %v", err)
	}
	if resp.TotalCells != len(modelIDs)*len(appNames) {
		t.Fatalf("totalCells = %d, want %d (zero failed cells)", resp.TotalCells, len(modelIDs)*len(appNames))
	}
	for _, cell := range resp.Cells {
		if cell.Result == nil {
			t.Fatalf("cell %s/%s has no result", cell.Model, cell.App)
		}
		if cell.Node == victim {
			t.Fatalf("cell %s/%s claims the dead node %s served it", cell.Model, cell.App, victim)
		}
	}

	// Same bits as a healthy in-process run: fault tolerance must not
	// change results.
	var models []config.Model
	for _, id := range modelIDs {
		models = append(models, config.Get(config.ModelID(id)))
	}
	var apps []workload.Profile
	for _, name := range appNames {
		p, _ := workload.ByName(name)
		apps = append(apps, p)
	}
	local := experiments.Run(experiments.Config{Models: models, Apps: apps, Insts: insts})
	if resp.Digest != local.Digest() {
		t.Fatalf("degraded-cluster digest %s != in-process digest %s", resp.Digest, local.Digest())
	}

	// The dead node's cells were recovered (rescued locally or failed over).
	m0, err := nodes[0].c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m0.Get("parrot_cluster_recoveries_total"); v < 1 {
		t.Fatalf("recoveries = %g, want >= 1 with a dead owner", v)
	}
}

// TestClusterzAndReadyz: /clusterz exposes the ring view; /readyz gates on
// prewarm/drain state while /healthz stays alive.
func TestClusterzAndReadyz(t *testing.T) {
	nodes := testCluster(t, 2)
	ctx := context.Background()

	st, err := nodes[0].c.Cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Self != nodes[0].url || len(st.Members) != 2 || len(st.Nodes) != 2 {
		t.Fatalf("clusterz: self=%q members=%d nodes=%d", st.Self, len(st.Members), len(st.Nodes))
	}
	// The client-side ring rebuild (members × vnodes) matches the server's
	// ownership — what parrotctl matrix -verify-owners relies on.
	ring := cluster.NewRing(st.Members, st.VNodes)
	for _, m := range []string{"N", "TON", "TOS"} {
		spec, err := resolveSpec(m, "gzip", 1000)
		if err != nil {
			t.Fatal(err)
		}
		d := spec.Digest()
		want, _ := nodes[0].cl.Owner(d)
		if got, _ := ring.Owner(d); got != want {
			t.Fatalf("client-side ring owner %q != server owner %q", got, want)
		}
	}

	if err := nodes[0].c.Ready(ctx); err != nil {
		t.Fatalf("fresh node not ready: %v", err)
	}
	nodes[0].sc.SetReady(false)
	if err := nodes[0].c.Ready(ctx); err == nil {
		t.Fatal("prewarming node reported ready")
	}
	if _, err := nodes[0].c.Health(ctx); err != nil {
		t.Fatalf("not-ready node must stay alive on /healthz: %v", err)
	}
	nodes[0].sc.SetReady(true)
	if err := nodes[0].c.Ready(ctx); err != nil {
		t.Fatalf("node not ready after prewarm finished: %v", err)
	}
}
