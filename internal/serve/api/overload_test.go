package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"parrot/internal/core"
	"parrot/internal/serve/cache"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/serve/sched"
	"parrot/internal/telemetry"
)

// overloadServer stands up the serving stack and also returns the raw
// httptest server, so tests can inspect status codes and headers the client
// library normally absorbs into typed errors.
func overloadServer(t *testing.T) (*httptest.Server, *client.Client, *sched.Sched) {
	t.Helper()
	c, err := cache.New(cache.Config{MemBudget: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s := sched.New(sched.Config{Workers: 2, Cache: c, Pool: core.NewPool(), Registry: reg})
	srv := New(Config{Cache: c, Sched: s, Registry: reg})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain(context.Background())
	})
	return hs, client.New(hs.URL), s
}

func postRun(t *testing.T, hs *httptest.Server, req proto.RunRequest, hdr map[string]string) *http.Response {
	t.Helper()
	b, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/run", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := hs.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestShedAnswers429WithRetryAfter: a submit bounced by admission control
// must surface as 429 carrying the back-off hint in all three conventions —
// Retry-After, X-Parrot-Retry-After-Ms, and the JSON body.
func TestShedAnswers429WithRetryAfter(t *testing.T) {
	hs, _, s := overloadServer(t)
	s.SetAdmitLimit(0) // shed everything that is not cache-served

	resp := postRun(t, hs, proto.RunRequest{Model: "TON", App: "gzip", Insts: 5000}, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	ms, err := strconv.ParseInt(resp.Header.Get(proto.RetryAfterMsHeader), 10, 64)
	if err != nil || ms <= 0 {
		t.Fatalf("%s = %q, want positive ms", proto.RetryAfterMsHeader, resp.Header.Get(proto.RetryAfterMsHeader))
	}
	var e proto.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.RetryAfterMs != ms {
		t.Fatalf("body retryAfterMs = %d, header = %d: hints disagree", e.RetryAfterMs, ms)
	}
	if st := s.Stats(); st.ShedInteractive != 1 {
		t.Fatalf("ShedInteractive = %d, want 1", st.ShedInteractive)
	}
}

// TestShedNeverAnswersAnotherBudget: a shed /v1/run answers a hinted 429
// even when the same (model, app) is cached at another instruction budget.
// A result is only ever the requested cell's: the cached cell itself is
// still served through the clamp.
func TestShedNeverAnswersAnotherBudget(t *testing.T) {
	hs, cl, s := overloadServer(t)

	warm, err := cl.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 5000})
	if err != nil {
		t.Fatal(err)
	}
	s.SetAdmitLimit(0)

	resp := postRun(t, hs, proto.RunRequest{Model: "TON", App: "gzip", Insts: 9000}, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 with the 5000-inst cell cached", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get(proto.RetryAfterMsHeader) == "" {
		t.Fatal("shed 429 carries no Retry-After hint")
	}

	hit := postRun(t, hs, proto.RunRequest{Model: "TON", App: "gzip", Insts: 5000}, nil)
	defer hit.Body.Close()
	var out proto.RunResponse
	if err := json.NewDecoder(hit.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if hit.StatusCode != http.StatusOK || out.Digest != warm.Digest || !out.Cached || out.Degraded {
		t.Fatalf("status %d, response %+v; want the cached cell %.12s itself", hit.StatusCode, out, warm.Digest)
	}
}

// TestDeadlineHeaderBecomesGatewayTimeout: the X-Parrot-Deadline budget must
// become the request ctx deadline, so a budget below the cost model's
// estimate fast-fails as 504 without simulating.
func TestDeadlineHeaderBecomesGatewayTimeout(t *testing.T) {
	hs, cl, s := overloadServer(t)

	// Observe model N once so the cost model has a run-time estimate well
	// above the 1ms budget the overloaded request will carry.
	if _, err := cl.Run(context.Background(), proto.RunRequest{Model: "N", App: "gzip", Insts: 2_000_000}); err != nil {
		t.Fatal(err)
	}

	// Different app, so the cell is not cached; 1ms budget.
	resp := postRun(t, hs, proto.RunRequest{Model: "N", App: "swim", Insts: 2_000_000},
		map[string]string{proto.DeadlineHeader: "1"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 for an unmeetable deadline", resp.StatusCode)
	}
	st := s.Stats()
	if st.DeadlineRejected == 0 {
		t.Fatalf("stats = %+v, want a deadline rejection", st)
	}

	// The deadline middleware instruments every budgeted request.
	mctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	exp, err := cl.MetricsText(mctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Get("parrot_deadline_requests_total"); !ok || v < 1 {
		t.Fatalf("parrot_deadline_requests_total = %v (present=%v), want >= 1", v, ok)
	}
}

// TestMatrixPartialResults: shed cells become explicit per-cell failure
// entries — the matrix completes partial with FailedCells set and no digest,
// instead of aborting the whole fan-out.
func TestMatrixPartialResults(t *testing.T) {
	_, cl, s := overloadServer(t)
	ctx := context.Background()

	// Warm one cell; its cache fast path survives any admission clamp.
	if _, err := cl.Run(ctx, proto.RunRequest{Model: "TON", App: "gzip", Insts: 5000}); err != nil {
		t.Fatal(err)
	}
	s.SetAdmitLimit(0)

	var last proto.Progress
	resp, err := cl.Matrix(ctx, proto.MatrixRequest{
		Models: []string{"TON"}, Apps: []string{"gzip", "swim"}, Insts: 5000,
	}, func(p proto.Progress) { last = p })
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalCells != 2 || resp.FailedCells != 1 {
		t.Fatalf("cells = %d total / %d failed, want 2 / 1", resp.TotalCells, resp.FailedCells)
	}
	if resp.Digest != "" {
		t.Fatalf("partial matrix carries digest %q, want none", resp.Digest)
	}
	if last.Failed != 1 {
		t.Fatalf("final progress Failed = %d, want 1", last.Failed)
	}
	for _, cell := range resp.Cells {
		switch cell.App {
		case "gzip":
			if cell.Error != "" || cell.Result == nil || !cell.Cached {
				t.Fatalf("warm cell %+v, want a cached result", cell)
			}
		case "swim":
			if cell.Error == "" || cell.Result != nil {
				t.Fatalf("shed cell %+v, want an explicit error and no result", cell)
			}
		}
	}
}

// TestHugeDeadlineBudgetIsUnbounded: an X-Parrot-Deadline or timeoutMs
// budget past the Duration range must saturate, not wrap into a negative
// timeout that answers 504 instead of simulating. Each case asks for a
// different app, so none can be answered from the cache.
func TestHugeDeadlineBudgetIsUnbounded(t *testing.T) {
	hs, cl, _ := overloadServer(t)
	for _, tc := range []struct {
		app       string
		deadline  string
		timeoutMs int
	}{
		{"gzip", "60000", 0},
		{"swim", "9300000000000", 0},
		{"flash", "9223372036854775807", 0},
		{"word", "", 9_300_000_000_000},
	} {
		t.Run(tc.app, func(t *testing.T) {
			var hdr map[string]string
			if tc.deadline != "" {
				hdr = map[string]string{proto.DeadlineHeader: tc.deadline}
			}
			resp := postRun(t, hs, proto.RunRequest{Model: "TON", App: tc.app, Insts: 5000, TimeoutMs: tc.timeoutMs}, hdr)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, want 200", resp.StatusCode)
			}
		})
	}

	// /v1/matrix caps timeoutMs at its own maximum; a wrapped budget slipped
	// under that cap as a negative timeout.
	m, err := cl.Matrix(context.Background(), proto.MatrixRequest{
		Models: []string{"N"}, Apps: []string{"gcc"}, Insts: 5000, TimeoutMs: 9_300_000_000_000,
	}, nil)
	if err != nil || m.FailedCells != 0 {
		t.Fatalf("matrix with a huge timeoutMs: err %v, response %+v", err, m)
	}
}
