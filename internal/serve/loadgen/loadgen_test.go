package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"parrot/internal/core"
	"parrot/internal/serve/api"
	"parrot/internal/serve/cache"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/serve/sched"
)

func testClient(t *testing.T) *client.Client {
	t.Helper()
	c, err := cache.New(cache.Config{MemBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(sched.Config{Workers: 2, Cache: c, Pool: core.NewPool()})
	srv := api.New(api.Config{Cache: c, Sched: s})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain(context.Background())
	})
	return client.New(hs.URL)
}

// TestClosedLoopWarmIsAllHits warms a 2×2 cell set once, then replays it
// closed-loop: every measured request must be a cache hit and the report's
// percentile split must be consistent.
func TestClosedLoopWarmIsAllHits(t *testing.T) {
	cl := testClient(t)
	ctx := context.Background()
	models := []string{"N", "TON"}
	apps := []string{"gzip", "swim"}

	// Warm pass via the batch endpoint — the harness's -warm path.
	if _, err := cl.Matrix(ctx, proto.MatrixRequest{Models: models, Apps: apps, Insts: 5000}, nil); err != nil {
		t.Fatal(err)
	}

	const requests = 32
	rep, err := Run(ctx, Config{
		Client:      cl,
		Mode:        "closed",
		Concurrency: 4,
		Requests:    requests,
		Models:      models,
		Apps:        apps,
		Insts:       5000,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != requests || rep.Errors != 0 {
		t.Fatalf("report: %d requests, %d errors; want %d/0", rep.Requests, rep.Errors, requests)
	}
	if rep.HitRate != 1.0 {
		t.Fatalf("hit rate = %.3f, want 1.0 against a warm cache", rep.HitRate)
	}
	if rep.Cached.N != requests || rep.Uncached.N != 0 {
		t.Fatalf("latency split cached=%d uncached=%d, want %d/0", rep.Cached.N, rep.Uncached.N, requests)
	}
	if rep.Cached.P99 <= 0 || rep.Cached.Max < rep.Cached.P50 {
		t.Fatalf("implausible percentiles: %+v", rep.Cached)
	}
	if rep.DistinctMod != 2 || rep.DistinctApp != 2 {
		t.Fatalf("distinct counts %d×%d, want 2×2", rep.DistinctMod, rep.DistinctApp)
	}
	if rep.String() == "" {
		t.Fatal("empty human summary")
	}
}

// TestColdThenWarmSplit runs a cold stream exactly the size of the cell
// set, then the same stream again: the second report must be all hits and
// the first all misses.
func TestColdThenWarmSplit(t *testing.T) {
	cl := testClient(t)
	ctx := context.Background()
	cfg := Config{
		Client:      cl,
		Mode:        "closed",
		Concurrency: 1, // serial: each distinct cell exactly once
		Requests:    4,
		Models:      []string{"TN"},
		Apps:        []string{"gzip", "swim", "gcc", "word"},
		Insts:       5000,
		Seed:        7,
	}
	cold, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold pass had %d hits, want 0", cold.CacheHits)
	}
	warm, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.HitRate != 1.0 {
		t.Fatalf("warm pass hit rate %.3f, want 1.0", warm.HitRate)
	}
}

func TestOpenLoopAgainstWarmCache(t *testing.T) {
	cl := testClient(t)
	ctx := context.Background()
	models := []string{"TON"}
	apps := []string{"gzip"}
	if _, err := cl.Matrix(ctx, proto.MatrixRequest{Models: models, Apps: apps, Insts: 5000}, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(ctx, Config{
		Client:   cl,
		Mode:     "open",
		RateHz:   500,
		Requests: 20,
		Duration: 10 * time.Second, // safety stop; requests should rule
		Models:   models,
		Apps:     apps,
		Insts:    5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("open loop issued no requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("open loop errors = %d, want 0 (in-flight bound generous)", rep.Errors)
	}
	if rep.HitRate != 1.0 {
		t.Fatalf("hit rate = %.3f, want 1.0", rep.HitRate)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("nil client accepted")
	}
	cl := client.New("http://127.0.0.1:1")
	if _, err := Run(context.Background(), Config{Client: cl, Mode: "sideways"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}
