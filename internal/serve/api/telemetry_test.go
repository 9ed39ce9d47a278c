package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

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
	if get("parrot_sched_completed_total") != 1 || get(`parrot_sched_outcomes_total{outcome="cache_hit"}`) != 1 {
		t.Fatal("sched series inconsistent with one exact run and one hit")
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

// TestMetricszCoversEveryStat pins that /metricsz is a complete stats
// encoding: after a run and a cache hit, every cache, scheduler and pool
// statistic the service tracks has a series, and the derived figures
// (hit count, mean entry size, fleet utilization) follow from the scrape.
func TestMetricszCoversEveryStat(t *testing.T) {
	cl, _, _ := testServer(t)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := cl.Run(ctx, proto.RunRequest{Model: "N", App: "gzip", Insts: 5000}); err != nil {
			t.Fatal(err)
		}
	}
	exp, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// stat -> the series that carries it.
	series := map[string]string{
		"cache.memHits":    `parrot_cache_lookups_total{level="mem"}`,
		"cache.diskHits":   `parrot_cache_lookups_total{level="disk"}`,
		"cache.misses":     `parrot_cache_lookups_total{level="miss"}`,
		"cache.puts":       "parrot_cache_puts_total",
		"cache.evictions":  "parrot_cache_evictions_total",
		"cache.diskErrors": "parrot_cache_disk_errors_total",
		"cache.entries":    "parrot_cache_entries",
		"cache.bytes":      "parrot_cache_bytes",
		"cache.budget":     "parrot_cache_budget_bytes",
		"cache.hitRate":    "parrot_cache_hit_rate",
		"cache.entryMean":  "parrot_cache_entry_bytes_mean",

		"sched.workers":          "parrot_sched_workers",
		"sched.running":          "parrot_sched_running",
		"sched.interactiveDepth": `parrot_queue_depth{class="interactive"}`,
		"sched.batchDepth":       `parrot_queue_depth{class="batch"}`,
		"sched.completed":        "parrot_sched_completed_total",
		"sched.deduped":          `parrot_sched_outcomes_total{outcome="deduped"}`,
		"sched.abandoned":        "parrot_sched_abandoned_total",
		"sched.cacheHits":        `parrot_sched_outcomes_total{outcome="cache_hit"}`,
		"sched.simInsts":         "parrot_sim_insts_total",
		"sched.busy":             "parrot_sched_busy_seconds_total",
		"sched.simMIPS":          "parrot_sched_sim_mips",
		"sched.shedInteractive":  `parrot_shed_total{class="interactive"}`,
		"sched.shedBatch":        `parrot_shed_total{class="batch"}`,
		"sched.deadlineRejected": "parrot_deadline_rejected_total",
		"sched.deadlineEvicted":  "parrot_deadline_evicted_total",
		"sched.admitLimit":       "parrot_admit_limit",
		"sched.uptime":           "parrot_uptime_seconds",

		"pool.gets":     "parrot_pool_gets_total",
		"pool.reuses":   "parrot_pool_reuses_total",
		"pool.puts":     "parrot_pool_puts_total",
		"pool.discards": "parrot_pool_discards_total",
		"pool.size":     "parrot_pool_size",
	}
	val := map[string]float64{}
	for stat, key := range series {
		v, ok := exp.Get(key)
		if !ok {
			t.Errorf("%s: series %s absent from /metricsz", stat, key)
		}
		val[stat] = v
	}
	if t.Failed() {
		t.FailNow()
	}
	if hits := val["cache.memHits"] + val["cache.diskHits"]; hits != 1 || val["cache.puts"] != 1 {
		t.Fatalf("cache hits %g, puts %g; want 1 / 1", hits, val["cache.puts"])
	}
	if val["cache.entryMean"] <= 0 || val["cache.entryMean"] != val["cache.bytes"] {
		t.Fatalf("entry mean %g, want the one owned entry's %g bytes", val["cache.entryMean"], val["cache.bytes"])
	}
	if val["sched.completed"] != 1 || val["sched.cacheHits"] != 1 || val["sched.simInsts"] <= 0 {
		t.Fatalf("sched: completed %g, cache hits %g, insts %g", val["sched.completed"], val["sched.cacheHits"], val["sched.simInsts"])
	}
	util := val["sched.busy"] / (val["sched.workers"] * val["sched.uptime"])
	if !(util > 0 && util <= 1) {
		t.Fatalf("utilization from busy/(workers*uptime) = %g, want in (0, 1]", util)
	}
	if val["pool.gets"] < 1 {
		t.Fatal("pool saw no checkouts")
	}
}

// TestTelemetryPreservesResults is the PR's bit-exactness pin: a server
// with every telemetry feature enabled (registry, tracing, logging, pprof)
// must produce matrices byte-identical to an in-process
// experiments.Run — observability cannot perturb simulation.
func TestTelemetryPreservesResults(t *testing.T) {
	c, err := cache.New(cache.Config{MemBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	// Real sink, quiet level.
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
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

// lockedBuffer is a log sink safe to read while server goroutines write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines decodes every JSON line written so far and empties the buffer.
func (b *lockedBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(b.buf.String()), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line %q is not JSON: %v", ln, err)
		}
		out = append(out, m)
	}
	b.buf.Reset()
	return out
}

// TestRequestLog runs a cluster node whose API logs through a slog JSON
// handler. Every line written is one JSON object. A traced /v1/run writes
// one request line whose reqID is the X-Parrot-Request-Id response header
// and which carries route, status and us. A line logged inside the handler
// carries the same reqID: the forward-failure Warn when the cell's owner is
// down.
func TestRequestLog(t *testing.T) {
	var sink lockedBuffer
	logger := slog.New(slog.NewJSONHandler(&sink, nil))
	nodes := testCluster(t, 2, func(i int, cc *cluster.Config, ac *Config) {
		if i == 0 {
			ac.Log = logger
			cc.Client.Retry.MaxAttempts = 1 // a failed forward is final
		}
	})
	run := func(t *testing.T, model, app string) string {
		t.Helper()
		body, _ := json.Marshal(proto.RunRequest{Model: model, App: app, Insts: 4000})
		resp, err := http.Post(nodes[0].url+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/run %s/%s: status %d", model, app, resp.StatusCode)
		}
		return resp.Header.Get(RequestIDHeader)
	}
	checkRequestLine := func(t *testing.T, line map[string]any, reqID string) {
		t.Helper()
		if line["msg"] != "request served" || line["reqID"] != reqID || line["route"] != "run" ||
			line["status"] != float64(http.StatusOK) {
			t.Fatalf("request line %v, want msg \"request served\", reqID %s, route run, status 200", line, reqID)
		}
		if us, ok := line["us"].(float64); !ok || us < 0 {
			t.Fatalf("request line %v has no us field", line)
		}
	}
	localModel, localApp, _ := cellOwnedBy(t, nodes[0], nodes[0].url, 4000)

	t.Run("JSONLines", func(t *testing.T) {
		run(t, localModel, localApp)
		lines := sink.lines(t) // fails on any line that is not one JSON object
		if len(lines) != 1 {
			t.Fatalf("a local /v1/run wrote %d lines, want 1: %v", len(lines), lines)
		}
		for _, key := range []string{"time", "level", "msg"} {
			if _, ok := lines[0][key]; !ok {
				t.Fatalf("line %v has no %q key", lines[0], key)
			}
		}
	})

	t.Run("BindsFields", func(t *testing.T) {
		reqID := run(t, localModel, localApp)
		lines := sink.lines(t)
		if len(lines) != 1 {
			t.Fatalf("a local /v1/run wrote %d lines, want 1: %v", len(lines), lines)
		}
		checkRequestLine(t, lines[0], reqID)
	})

	t.Run("ContextPlumbing", func(t *testing.T) {
		model, app, _ := cellOwnedBy(t, nodes[0], nodes[1].url, 4000)
		nodes[1].kill()
		reqID := run(t, model, app)
		lines := sink.lines(t)
		if len(lines) != 2 {
			t.Fatalf("a rescued /v1/run wrote %d lines, want the forward warning and the request line: %v", len(lines), lines)
		}
		if w := lines[0]; w["level"] != "WARN" || w["msg"] != "forward failed, rescuing locally" || w["reqID"] != reqID {
			t.Fatalf("handler line %v, want the forward-failure warning with reqID %s", w, reqID)
		}
		checkRequestLine(t, lines[1], reqID)
	})
}
