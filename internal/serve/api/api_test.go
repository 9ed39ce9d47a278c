package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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

// testServer stands up the full serving stack — cache, scheduler, HTTP
// surface — behind an httptest listener, and a real client in front of it,
// so these tests also exercise SSE parsing and digest verification in the
// client library.
func testServer(t *testing.T) (*client.Client, *cache.Cache, *sched.Sched) {
	t.Helper()
	c, err := cache.New(cache.Config{MemBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// One registry shared by scheduler and server, exactly as parrotd wires
	// it, so /metricsz scrapes exercise every collector.
	reg := telemetry.NewRegistry()
	s := sched.New(sched.Config{Workers: 2, Cache: c, Pool: core.NewPool(), Registry: reg})
	srv := New(Config{Cache: c, Sched: s, Registry: reg})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain(context.Background())
	})
	return client.New(hs.URL), c, s
}

func TestRunEndToEnd(t *testing.T) {
	cl, _, _ := testServer(t)
	ctx := context.Background()

	resp, err := cl.Run(ctx, proto.RunRequest{Model: "TON", App: "gzip", Insts: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("first run reported cached")
	}
	if resp.Result.Model != "TON" || resp.Result.App != "gzip" || resp.Result.Insts == 0 {
		t.Fatalf("bad result header: %s/%s insts=%d", resp.Result.Model, resp.Result.App, resp.Result.Insts)
	}
	// The same cell again: cache hit, identical content address + payload.
	resp2, err := cl.Run(ctx, proto.RunRequest{Model: "TON", App: "gzip", Insts: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached {
		t.Fatal("second run missed the cache")
	}
	if resp2.Digest != resp.Digest || resp2.ResultDigest != resp.ResultDigest {
		t.Fatalf("digests changed across cache hit: %s/%s vs %s/%s",
			resp2.Digest, resp2.ResultDigest, resp.Digest, resp.ResultDigest)
	}

	// The computed cell is addressable by digest.
	got, err := cl.Result(ctx, resp.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if got.ResultDigest != resp.ResultDigest {
		t.Fatal("results endpoint served a different result")
	}
}

// TestMatrixDigestMatchesInProcessRun is the serving layer's bit-exactness
// proof at test scale: a small matrix served over HTTP + SSE must
// reassemble to the same canonical digest as an in-process experiments.Run
// over the same cells.
func TestMatrixDigestMatchesInProcessRun(t *testing.T) {
	cl, _, _ := testServer(t)
	ctx := context.Background()

	modelIDs := []string{"N", "TON"}
	appNames := []string{"gzip", "swim", "gcc"}
	const insts = 20_000

	var progress []proto.Progress
	resp, err := cl.Matrix(ctx, proto.MatrixRequest{
		Models: modelIDs, Apps: appNames, Insts: insts,
	}, func(p proto.Progress) { progress = append(progress, p) })
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalCells != len(modelIDs)*len(appNames) {
		t.Fatalf("totalCells = %d, want %d", resp.TotalCells, len(modelIDs)*len(appNames))
	}

	// SSE progress: one event per cell, done strictly increasing 1..total.
	if len(progress) != resp.TotalCells {
		t.Fatalf("progress events = %d, want %d", len(progress), resp.TotalCells)
	}
	for i, p := range progress {
		if p.Done != i+1 || p.Total != resp.TotalCells {
			t.Fatalf("progress[%d] = %d/%d, want %d/%d", i, p.Done, p.Total, i+1, resp.TotalCells)
		}
	}

	// Local reference matrix over the same cells.
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
		t.Fatalf("served matrix digest %s != in-process digest %s", resp.Digest, local.Digest())
	}
	if resp.PMaxApp != local.PMaxApp || resp.PMax != local.PMax {
		t.Fatalf("PMax anchor differs: served %s/%g, local %s/%g",
			resp.PMaxApp, resp.PMax, local.PMaxApp, local.PMax)
	}

	// Second pass: every cell must be served from cache, digest unchanged.
	resp2, err := cl.Matrix(ctx, proto.MatrixRequest{
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

func TestBadRequests(t *testing.T) {
	cl, _, _ := testServer(t)
	ctx := context.Background()

	if _, err := cl.Run(ctx, proto.RunRequest{Model: "NOPE", App: "gzip"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := cl.Run(ctx, proto.RunRequest{Model: "TON", App: "nope"}); err == nil {
		t.Fatal("unknown application accepted")
	}
	if _, err := cl.Matrix(ctx, proto.MatrixRequest{Models: []string{"NOPE"}}, nil); err == nil {
		t.Fatal("unknown matrix model accepted")
	}
	if _, err := cl.Result(ctx, "deadbeef"); err == nil {
		t.Fatal("missing digest served")
	}
}

func TestHealthzAndMetricsz(t *testing.T) {
	cl, _, s := testServer(t)
	ctx := context.Background()

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Draining || h.SimVersion != experiments.SimVersion {
		t.Fatalf("health = %+v", h)
	}

	if _, err := cl.Run(ctx, proto.RunRequest{Model: "N", App: "gzip", Insts: 5000}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(ctx, proto.RunRequest{Model: "N", App: "gzip", Insts: 5000}); err != nil {
		t.Fatal(err)
	}
	exp, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	get := func(key string) float64 { v, _ := exp.Get(key); return v }
	if get("parrot_sched_completed_total") != 1 || get(`parrot_sched_outcomes_total{outcome="cache_hit"}`) != 1 {
		t.Fatalf("sched series: completed %g, cache hits %g; want 1 / 1",
			get("parrot_sched_completed_total"), get(`parrot_sched_outcomes_total{outcome="cache_hit"}`))
	}
	hits := get(`parrot_cache_lookups_total{level="mem"}`) + get(`parrot_cache_lookups_total{level="disk"}`)
	if get("parrot_cache_puts_total") != 1 || hits != 1 {
		t.Fatalf("cache series: puts %g, hits %g; want 1 / 1", get("parrot_cache_puts_total"), hits)
	}
	if v := get("parrot_sched_sim_mips"); v <= 0 {
		t.Fatalf("parrot_sched_sim_mips = %g, want > 0", v)
	}

	// Drain is reflected in /healthz.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	h, err = cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Draining {
		t.Fatal("healthz does not report draining")
	}
}

// TestCorruptedRunResponseRejectedByClient pins the client-side integrity
// check: a response whose payload does not reproduce its ResultDigest must
// be rejected, not silently accepted.
func TestCorruptedRunResponseRejectedByClient(t *testing.T) {
	// A proxy that flips one numeric field in the run response.
	cl, _, _ := testServer(t)
	resp, err := cl.Run(context.Background(), proto.RunRequest{Model: "TN", App: "swim", Insts: 5000})
	if err != nil {
		t.Fatal(err)
	}

	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/run" {
			http.NotFound(w, r)
			return
		}
		bad := *resp
		badRes := *resp.Result
		badRes.Cycles++ // transport corruption
		bad.Result = &badRes
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(bad)
		w.Header().Set("Content-Type", "application/json")
		w.Write(buf.Bytes())
	}))
	defer corrupt.Close()

	_, err = client.New(corrupt.URL).Run(context.Background(), proto.RunRequest{Model: "TN", App: "swim", Insts: 5000})
	if err == nil {
		t.Fatal("client accepted a corrupted result")
	}
}
