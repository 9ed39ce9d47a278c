package client

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parrot/internal/chaos"
	"parrot/internal/serve/proto"
)

// shedServer answers 429 for the first `sheds` requests — with back-off
// hints when hinted — then serves the canned response. It records the
// arrival time and X-Parrot-Deadline header of every attempt.
func shedServer(t *testing.T, sheds int, hinted bool, retryAfterMs int64, resp *proto.RunResponse) (*httptest.Server, *atomic.Int32, *[]string) {
	t.Helper()
	var calls atomic.Int32
	deadlines := &[]string{}
	var mu sync.Mutex
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		mu.Lock()
		*deadlines = append(*deadlines, r.Header.Get(proto.DeadlineHeader))
		mu.Unlock()
		if int(n) <= sheds {
			if hinted {
				w.Header().Set(proto.RetryAfterMsHeader, strconv.FormatInt(retryAfterMs, 10))
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(proto.Error{Error: "shed"})
			return
		}
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(hs.Close)
	return hs, &calls, deadlines
}

// TestShedWithHintRetriesAfterHint: a 429 carrying a Retry-After hint is
// retryable, and the hint overrides the exponential backoff for the
// following sleep.
func TestShedWithHintRetriesAfterHint(t *testing.T) {
	resp := canonicalResponse(t)
	const hintMs = 80
	hs, calls, _ := shedServer(t, 1, true, hintMs, resp)

	c := New(hs.URL, WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}))
	start := time.Now()
	out, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000})
	if err != nil {
		t.Fatalf("Run after a hinted shed: %v", err)
	}
	if out.Attempts != 2 || calls.Load() != 2 {
		t.Fatalf("attempts = %d (server saw %d), want 2", out.Attempts, calls.Load())
	}
	// The sleep must follow the server's hint (80ms), not the ~1-2ms policy
	// backoff: elapsed time is the observable.
	if elapsed := time.Since(start); elapsed < hintMs*time.Millisecond {
		t.Fatalf("retried after %v, want >= %dms per the server hint", elapsed, hintMs)
	}
}

// TestShedWithoutHintDoesNotRetry: a bare 429 is the server explicitly
// load-shedding with no guidance — hammering it again is wrong.
func TestShedWithoutHintDoesNotRetry(t *testing.T) {
	resp := canonicalResponse(t)
	hs, calls, _ := shedServer(t, 99, false, 0, resp)

	c := New(hs.URL, WithRetry(fastRetry(4)))
	_, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000})
	if err == nil {
		t.Fatal("Run succeeded though the server always sheds")
	}
	he, ok := AsHTTPError(err)
	if !ok || he.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want the 429 HTTPError", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1 (no hint, no retry)", calls.Load())
	}
}

// TestRetryBailsWhenDeadlineCannotCoverBackoff: with a hint longer than the
// remaining ctx budget, the client must fail immediately with the last
// error instead of sleeping into a dead deadline.
func TestRetryBailsWhenDeadlineCannotCoverBackoff(t *testing.T) {
	resp := canonicalResponse(t)
	hs, calls, _ := shedServer(t, 99, true, 10_000, resp) // 10s hint

	c := New(hs.URL, WithRetry(fastRetry(4)))
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Run(ctx, proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000})
	if err == nil {
		t.Fatal("Run succeeded though the server always sheds")
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Fatalf("took %v, want an immediate bail (no sleep into the dead deadline)", elapsed)
	}
	if he, ok := AsHTTPError(err); !ok || he.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want the last 429 as the final error", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1", calls.Load())
	}
}

// TestDeadlineHeaderRestampedPerAttempt: each attempt must carry the budget
// still left — strictly shrinking across retries — so the server sees the
// caller's true remaining patience.
func TestDeadlineHeaderRestampedPerAttempt(t *testing.T) {
	resp := canonicalResponse(t)
	hs, _, deadlines := shedServer(t, 1, true, 50, resp)

	c := New(hs.URL, WithRetry(fastRetry(3)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Run(ctx, proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000}); err != nil {
		t.Fatal(err)
	}
	if len(*deadlines) != 2 {
		t.Fatalf("server saw %d attempts, want 2", len(*deadlines))
	}
	first, err1 := strconv.ParseInt((*deadlines)[0], 10, 64)
	second, err2 := strconv.ParseInt((*deadlines)[1], 10, 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("deadline headers not stamped: %q", *deadlines)
	}
	if second >= first {
		t.Fatalf("deadline budgets %d → %d ms, want strictly shrinking across attempts", first, second)
	}
}

// TestChaosInjectionRetriesLikeTransportError: a chaos-injected request
// fault must walk the same retry ladder as a real connection reset.
func TestChaosInjectionRetriesLikeTransportError(t *testing.T) {
	resp := canonicalResponse(t)
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(hs.Close)

	// Decision k at a site is a pure function of (seed, site, k): probe
	// seeds until one whose first decision fires and second does not, then
	// replay it on a fresh injector — fully deterministic, no flake.
	rules, err := chaos.Parse("site=client.request p=0.5 err")
	if err != nil {
		t.Fatal(err)
	}
	seed, found := uint64(0), false
	for s := uint64(1); s <= 64 && !found; s++ {
		probe := chaos.New(s, rules)
		first := probe.Inject("client.request", "/v1/run")
		second := probe.Inject("client.request", "/v1/run")
		if first != nil && second == nil {
			seed, found = s, true
		}
	}
	if !found {
		t.Fatal("no seed in 1..64 yields (fault, ok) — p=0.5 stream degenerate?")
	}
	inj := chaos.New(seed, rules)
	c := New(hs.URL, WithRetry(fastRetry(3)), WithChaos(inj))
	out, err := c.Run(context.Background(), proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000})
	if err != nil {
		t.Fatalf("Run after one injected fault: %v", err)
	}
	if out.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (injected fault + success)", out.Attempts)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d requests, want 1 (the injected attempt never hit the wire)", calls.Load())
	}
}

// TestDecodeErrSaturatesRetryAfter: back-off hints past the Duration range
// must saturate to a long wait, not wrap negative and silently turn a
// hinted 429 into a non-retryable one.
func TestDecodeErrSaturatesRetryAfter(t *testing.T) {
	const max = time.Duration(math.MaxInt64)
	for _, tc := range []struct {
		name   string
		hdr    map[string]string
		body   string
		wantRA time.Duration
	}{
		{"ms-normal", map[string]string{proto.RetryAfterMsHeader: "250"}, "", 250 * time.Millisecond},
		{"secs-normal", map[string]string{"Retry-After": "2"}, "", 2 * time.Second},
		{"ms-wraps", map[string]string{proto.RetryAfterMsHeader: "9300000000000"}, "", max},
		{"ms-max", map[string]string{proto.RetryAfterMsHeader: "9223372036854775807"}, "", max},
		{"secs-wraps", map[string]string{"Retry-After": "9300000000"}, "", max},
		{"body-wraps", nil, `{"error":"shed","retryAfterMs":9300000000000}`, max},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := &http.Response{
				StatusCode: http.StatusTooManyRequests,
				Header:     http.Header{},
				Body:       io.NopCloser(strings.NewReader(tc.body)),
			}
			for k, v := range tc.hdr {
				resp.Header.Set(k, v)
			}
			he := decodeErr(resp).(*HTTPError)
			if he.RetryAfter != tc.wantRA {
				t.Fatalf("RetryAfter = %v, want %v", he.RetryAfter, tc.wantRA)
			}
			if !retryable(he) {
				t.Fatal("a hinted 429 must stay retryable")
			}
		})
	}
}
