package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/proto"
	"parrot/internal/workload"
)

// canonicalResponse runs one tiny cell in-process and wraps it as the wire
// response a healthy parrotd would produce, so the client's digest
// verification passes on the real payload.
func canonicalResponse(t *testing.T) *proto.RunResponse {
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

// flakyServer fails the first failures requests with status (or a dropped
// connection when status == 0), then serves the canned response.
func flakyServer(t *testing.T, failures int, status int, resp *proto.RunResponse) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if int(n) <= failures {
			if status == 0 {
				// Hard transport failure: hijack and sever the connection.
				hj, ok := w.(http.Hijacker)
				if !ok {
					t.Fatal("recorder not hijackable")
				}
				conn, _, err := hj.Hijack()
				if err != nil {
					t.Fatal(err)
				}
				conn.Close()
				return
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(proto.Error{Error: "transient"})
			return
		}
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(hs.Close)
	return hs, &calls
}

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
}

func TestRunRetriesOn5xx(t *testing.T) {
	resp := canonicalResponse(t)
	hs, calls := flakyServer(t, 2, http.StatusServiceUnavailable, resp)

	c := New(hs.URL, WithRetry(fastRetry(4)))
	out, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000})
	if err != nil {
		t.Fatalf("Run after two 503s: %v", err)
	}
	if out.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (two 503s + success)", out.Attempts)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3", calls.Load())
	}
	if out.Digest != resp.Digest {
		t.Fatalf("digest = %s, want %s", out.Digest, resp.Digest)
	}
}

func TestRunRetriesOnSeveredConnection(t *testing.T) {
	resp := canonicalResponse(t)
	hs, _ := flakyServer(t, 1, 0, resp)

	c := New(hs.URL, WithRetry(fastRetry(3)))
	out, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000})
	if err != nil {
		t.Fatalf("Run after a dropped connection: %v", err)
	}
	if out.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", out.Attempts)
	}
}

func TestRunRetryBudgetExhausted(t *testing.T) {
	resp := canonicalResponse(t)
	hs, calls := flakyServer(t, 99, http.StatusServiceUnavailable, resp)

	c := New(hs.URL, WithRetry(fastRetry(3)))
	_, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip"})
	if err == nil {
		t.Fatal("Run succeeded though every attempt 503ed")
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want exactly the 3-attempt budget", calls.Load())
	}
}

func TestRunSingleAttemptDisablesRetry(t *testing.T) {
	resp := canonicalResponse(t)
	hs, calls := flakyServer(t, 1, http.StatusServiceUnavailable, resp)

	c := New(hs.URL, WithRetry(RetryPolicy{MaxAttempts: 1}))
	if _, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip"}); err == nil {
		t.Fatal("MaxAttempts=1 should fail fast on the first 503")
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1", calls.Load())
	}
}

func TestRunDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(proto.Error{Error: "unknown model"})
	}))
	t.Cleanup(hs.Close)

	c := New(hs.URL, WithRetry(fastRetry(4)))
	if _, err := c.Run(context.Background(), proto.RunRequest{Model: "bogus", App: "gzip"}); err == nil {
		t.Fatal("Run succeeded against a 400")
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d requests for a 400, want 1 (4xx must not retry)", calls.Load())
	}
}

func TestWithHeaderStampedOnEveryAttempt(t *testing.T) {
	resp := canonicalResponse(t)
	var calls, stamped atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if r.Header.Get("X-Parrot-Forwarded") == "http://me" {
			stamped.Add(1)
		}
		if n == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(hs.Close)

	c := New(hs.URL, WithRetry(fastRetry(2)), WithHeader("X-Parrot-Forwarded", "http://me"))
	if _, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000}); err != nil {
		t.Fatal(err)
	}
	if stamped.Load() != calls.Load() {
		t.Fatalf("header stamped on %d of %d attempts", stamped.Load(), calls.Load())
	}
}

func TestCorruptResultRejected(t *testing.T) {
	resp := canonicalResponse(t)
	corrupt := *resp
	bad := *resp.Result
	bad.Cycles += 12345
	corrupt.Result = &bad

	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(&corrupt)
	}))
	t.Cleanup(hs.Close)

	c := New(hs.URL)
	if _, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000}); err == nil {
		t.Fatal("client accepted a result that does not reproduce its digest")
	}
}

// TestBackoffWithinJitterBounds draws many delays per attempt from both
// ladders in use (this client's defaults and the cluster router's) and
// requires every one to fall in [d/2, d], d = min(base<<attempt, max).
// The spread must also reach both halves of the window: jitter, not a
// constant.
func TestBackoffWithinJitterBounds(t *testing.T) {
	const draws = 10_000
	for _, p := range []RetryPolicy{
		RetryPolicy{}.withDefaults(),
		{MaxAttempts: 4, BaseBackoff: 25 * time.Millisecond, MaxBackoff: time.Second},
	} {
		for attempt := 0; attempt <= 6; attempt++ {
			d := min(p.BaseBackoff<<attempt, p.MaxBackoff)
			lo, hi := time.Duration(1<<62), time.Duration(0)
			for i := 0; i < draws; i++ {
				got := p.Backoff(attempt)
				if got < d/2 || got > d {
					t.Fatalf("%+v attempt %d: delay %v outside [%v, %v]", p, attempt, got, d/2, d)
				}
				lo, hi = min(lo, got), max(hi, got)
			}
			if lo > d/2+d/8 || hi < d-d/8 {
				t.Fatalf("%+v attempt %d: %d draws spanned only [%v, %v] of [%v, %v]", p, attempt, draws, lo, hi, d/2, d)
			}
		}
		// A shift past the duration range saturates at the cap.
		if got := p.Backoff(200); got < p.MaxBackoff/2 || got > p.MaxBackoff {
			t.Fatalf("%+v attempt 200: delay %v outside [%v, %v]", p, got, p.MaxBackoff/2, p.MaxBackoff)
		}
	}
}
