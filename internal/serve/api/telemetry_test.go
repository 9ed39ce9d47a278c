package api

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/cache"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/serve/sched"
	"parrot/internal/telemetry"
	tlog "parrot/internal/telemetry/log"
	"parrot/internal/workload"
)

// TestMetricszPrometheus drives real traffic through the stack and then
// asserts the /metricsz exposition parses and carries the inventoried
// series with values consistent with the traffic: requests by route, the
// cell-disposition split, queue-wait histograms, cache/pool/sim series.
func TestMetricszPrometheus(t *testing.T) {
	cl, _, _ := testServer(t)
	ctx := context.Background()

	// One exact simulation, one cache hit.
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
	get := func(key string) float64 {
		t.Helper()
		v, ok := exp.Get(key)
		if !ok {
			t.Fatalf("series %s absent from scrape; families: %v", key, exp.Names)
		}
		return v
	}

	if v := get(`parrot_requests_total{code="200",route="run"}`); v != 2 {
		t.Fatalf("run requests = %g, want 2", v)
	}
	if v := get(`parrot_cell_requests_total{disposition="exact"}`); v != 1 {
		t.Fatalf("exact cells = %g, want 1", v)
	}
	if v := get(`parrot_cell_requests_total{disposition="hit"}`); v != 1 {
		t.Fatalf("hit cells = %g, want 1", v)
	}
	// Queue-wait histogram: the exact run was enqueued once.
	if v := get(`parrot_queue_wait_seconds_count{class="interactive"}`); v != 1 {
		t.Fatalf("interactive queue waits = %g, want 1", v)
	}
	if exp.Types["parrot_queue_wait_seconds"] != "histogram" {
		t.Fatalf("parrot_queue_wait_seconds type = %q", exp.Types["parrot_queue_wait_seconds"])
	}
	// Scheduler outcome split sums to submissions (the no-torn invariant as
	// seen through a scrape).
	var outcomes float64
	for _, k := range exp.Family("parrot_sched_outcomes_total") {
		outcomes += exp.Series[k]
	}
	if submitted := get("parrot_sched_submitted_total"); outcomes != submitted {
		t.Fatalf("outcomes sum %g != submitted %g", outcomes, submitted)
	}
	// Cache, pool and sim families present with consistent values.
	if v := get(`parrot_cache_lookups_total{level="mem"}`); v != 1 {
		t.Fatalf("mem hits = %g, want 1", v)
	}
	if get("parrot_cache_entries") != 1 || get("parrot_cache_puts_total") != 1 {
		t.Fatal("cache gauge/counter inconsistent with one stored cell")
	}
	if get("parrot_pool_gets_total") < 1 {
		t.Fatal("pool saw no checkouts")
	}
	if get("parrot_sim_insts_total") <= 0 || get("parrot_sim_runs_total") != 1 {
		t.Fatal("sim totals inconsistent with one exact run")
	}
	if get("parrot_request_seconds_count{route=\"run\"}") != 2 {
		t.Fatal("request latency histogram did not record both requests")
	}

	// The legacy JSON body survives under ?format=json.
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sched.Completed != 1 || m.Sched.CacheHits != 1 {
		t.Fatalf("legacy JSON metrics = %+v", m.Sched)
	}
}

// TestTraceEndpointRoundTrip pins the request-tracing contract: a /v1/run
// response names its request ID; /v1/trace/{id} serves parseable Chrome
// trace-event JSON; the span set covers submit→queued→checkout→run→cache
// write-back with correct disposition attrs; worker spans tile exactly and
// nest inside the root http.request span.
func TestTraceEndpointRoundTrip(t *testing.T) {
	cl, _, _ := testServer(t)
	ctx := context.Background()

	resp, err := cl.Run(ctx, proto.RunRequest{Model: "TON", App: "swim", Insts: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RequestID == "" {
		t.Fatal("run response carries no request ID")
	}
	if resp.Disposition != "exact" {
		t.Fatalf("cold run disposition = %q, want a simulation", resp.Disposition)
	}

	// Chrome trace-event JSON parses and is keyed to the request.
	raw, err := cl.Trace(ctx, resp.RequestID)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace endpoint body is not Chrome trace JSON: %v", err)
	}
	if doc.OtherData["requestId"] != resp.RequestID {
		t.Fatalf("trace requestId = %v, want %s", doc.OtherData["requestId"], resp.RequestID)
	}

	// Raw spans: taxonomy, attrs, nesting and tiling.
	spans, err := cl.TraceSpans(ctx, resp.RequestID)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]telemetry.Span{}
	for _, sp := range spans.Spans {
		byName[sp.Name] = sp
	}
	for _, name := range []string{"http.request", "sched.submit", "sched.wait",
		"sched.queued", "machine.checkout", "sim.run", "cache.put"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("span %q missing; got %v", name, names(spans.Spans))
		}
	}
	if got := byName["sched.submit"].Attrs["disposition"]; got != resp.Disposition {
		t.Fatalf("sched.submit disposition attr = %q, want %q", got, resp.Disposition)
	}
	if byName["sim.run"].Attrs["model"] != "TON" || byName["sim.run"].Attrs["app"] != "swim" {
		t.Fatalf("sim.run attrs = %v", byName["sim.run"].Attrs)
	}

	// Worker-row spans tile exactly: queued→checkout→run→cache.put share
	// boundary timestamps.
	for _, pair := range [][2]string{
		{"sched.queued", "machine.checkout"},
		{"machine.checkout", "sim.run"},
		{"sim.run", "cache.put"},
	} {
		a, b := byName[pair[0]], byName[pair[1]]
		if a.TID != telemetry.TIDWorker || b.TID != telemetry.TIDWorker {
			t.Fatalf("%s/%s not on the worker row", pair[0], pair[1])
		}
		if a.End() != b.StartUs {
			t.Fatalf("%s [..%d] does not tile into %s [%d..]", pair[0], a.End(), pair[1], b.StartUs)
		}
	}
	// Everything nests inside the root.
	root := byName["http.request"]
	if root.TID != telemetry.TIDRequest {
		t.Fatal("http.request not on the request row")
	}
	for _, sp := range spans.Spans {
		if sp.Name == "http.request" {
			continue
		}
		if sp.StartUs < root.StartUs || sp.End() > root.End() {
			t.Fatalf("span %s [%d,%d] escapes root [%d,%d]",
				sp.Name, sp.StartUs, sp.End(), root.StartUs, root.End())
		}
	}

	// Warm hit: disposition flips to "hit", trace shows the cache.get span
	// with a mem outcome and no worker spans.
	resp2, err := cl.Run(ctx, proto.RunRequest{Model: "TON", App: "swim", Insts: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Disposition != "hit" || resp2.RequestID == resp.RequestID {
		t.Fatalf("warm run: disposition=%q requestID=%q", resp2.Disposition, resp2.RequestID)
	}
	spans2, err := cl.TraceSpans(ctx, resp2.RequestID)
	if err != nil {
		t.Fatal(err)
	}
	var sawGet bool
	for _, sp := range spans2.Spans {
		if sp.Name == "cache.get" {
			sawGet = true
			if sp.Attrs["outcome"] != "mem" {
				t.Fatalf("cache.get outcome = %q, want mem", sp.Attrs["outcome"])
			}
		}
		if sp.Name == "sim.run" {
			t.Fatal("cache-hit trace contains a sim.run span")
		}
	}
	if !sawGet {
		t.Fatalf("cache-hit trace has no cache.get span: %v", names(spans2.Spans))
	}

	// A client-supplied request ID is honored.
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, cl.Base()+"/v1/run",
		strings.NewReader(`{"model":"TON","app":"swim"}`))
	req.Header.Set(RequestIDHeader, "my-custom-id-001")
	hres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if got := hres.Header.Get(RequestIDHeader); got != "my-custom-id-001" {
		t.Fatalf("request ID not propagated: %q", got)
	}
	if _, err := cl.TraceSpans(ctx, "my-custom-id-001"); err != nil {
		t.Fatalf("propagated request ID not traceable: %v", err)
	}

	// Unknown IDs 404.
	if _, err := cl.Trace(ctx, "nope"); err == nil {
		t.Fatal("unknown trace ID served")
	}
}

func names(spans []telemetry.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestStatsStreamSSE reads the first snapshot off /v1/stats/stream and
// checks it is a flat series map carrying live values.
func TestStatsStreamSSE(t *testing.T) {
	cl, _, _ := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := cl.Run(ctx, proto.RunRequest{Model: "N", App: "gzip", Insts: 5000}); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		cl.Base()+"/v1/stats/stream?interval_ms=100", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var data string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if data == "" {
		t.Fatalf("no stats event received: %v", sc.Err())
	}
	var flat map[string]float64
	if err := json.Unmarshal([]byte(data), &flat); err != nil {
		t.Fatalf("stats event is not a flat series map: %v", err)
	}
	if flat["parrot_sched_completed_total"] != 1 {
		t.Fatalf("streamed completed = %g, want 1", flat["parrot_sched_completed_total"])
	}
	if _, ok := flat["parrot_uptime_seconds"]; !ok {
		t.Fatal("stream snapshot missing uptime")
	}
}

// TestTelemetryPreservesResults is the PR's bit-exactness pin: a server
// with every telemetry feature enabled (registry, tracing, logging, stats
// streaming) must produce matrices byte-identical to an in-process
// experiments.Run — observability cannot perturb simulation.
func TestTelemetryPreservesResults(t *testing.T) {
	c, err := cache.New(cache.Config{MemBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	logger := tlog.New(os.Stderr, tlog.LevelError) // real sink, quiet level
	s := sched.New(sched.Config{Workers: 2, Cache: c, Pool: core.NewPool(), Registry: reg, Log: logger})
	srv := New(Config{Cache: c, Sched: s, Registry: reg, Log: logger, TraceBuf: 16, EnablePprof: true})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain(context.Background())
	})
	cl := client.New(hs.URL)
	ctx := context.Background()

	modelIDs := []string{"N", "TON"}
	appNames := []string{"gzip", "swim"}
	const insts = 20_000

	cold, err := cl.Matrix(ctx, proto.MatrixRequest{Models: modelIDs, Apps: appNames, Insts: insts}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cl.Matrix(ctx, proto.MatrixRequest{Models: modelIDs, Apps: appNames, Insts: insts}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Digest != cold.Digest {
		t.Fatal("warm digest differs from cold digest under telemetry")
	}
	if warm.CachedCells != warm.TotalCells {
		t.Fatalf("warm pass: %d/%d cached", warm.CachedCells, warm.TotalCells)
	}
	for _, cell := range warm.Cells {
		if cell.Disposition != "hit" {
			t.Fatalf("warm cell %s/%s disposition = %q, want hit", cell.Model, cell.App, cell.Disposition)
		}
	}

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
	if cold.Digest != local.Digest() {
		t.Fatalf("telemetry-on digest %s != in-process digest %s", cold.Digest, local.Digest())
	}

	// pprof is routable when enabled.
	pr, err := http.Get(hs.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d", pr.StatusCode)
	}
}
