// Package client is the Go client of the parrotd serving API. Every remote
// consumer — parrotctl, parrotload, parrotsim -remote, parrotbench -remote
// — goes through this library, so request construction, SSE parsing and
// integrity verification live in one place.
//
// Responses carrying results are verified end-to-end: the decoded
// core.Result must reproduce the server's reported ResultDigest (the same
// canonical hashing the golden-digest test uses), so transport or decode
// corruption is detected at the client boundary rather than propagating
// into figures.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"parrot/internal/chaos"
	"parrot/internal/experiments"
	"parrot/internal/serve/proto"
	"parrot/internal/telemetry"
)

// RetryPolicy is the one retry ladder of the serving stack: this client's
// transport retries and the cluster router's cross-node attempts both run
// on it. Run requests are idempotent by content address (the same RunSpec
// digest returns the same result, usually straight from cache on the
// retry), so retrying a POST /v1/run after a connection reset or a 5xx is
// safe.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget (<=0 = 3; 1 disables retry).
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the exponential backoff between
	// attempts (<=0 = 50ms / 1s); each delay is jittered ±50%.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// Or fills every non-positive field of p from def.
func (p RetryPolicy) Or(def RetryPolicy) RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = def.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = def.MaxBackoff
	}
	return p
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	return p.Or(RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second})
}

// Backoff returns the jittered delay before attempt+1: uniform in
// [d/2, d], where d = min(BaseBackoff<<attempt, MaxBackoff).
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.MaxBackoff
	if shift := uint(attempt); shift < 63 && p.BaseBackoff <= p.MaxBackoff>>shift {
		d = p.BaseBackoff << shift
	}
	return d/2 + rand.N(d-d/2+1)
}

// Sleep waits d unless ctx ends first; it reports whether the full wait
// elapsed.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Option customizes a Client.
type Option func(*Client)

// WithRetry sets the transport retry policy (the default is 3 attempts;
// pass RetryPolicy{MaxAttempts: 1} to disable retry when a higher layer
// owns the budget, as the cluster router does).
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p.withDefaults() }
}

// WithHeader adds a header to every request — the cluster layer stamps its
// forwarded hop guard this way.
func WithHeader(key, value string) Option {
	return func(c *Client) {
		if c.headers == nil {
			c.headers = map[string]string{}
		}
		c.headers[key] = value
	}
}

// WithChaos installs a fault injector on the request path (site
// "client.request", subject = URL path). Injected errors are
// transport-class, so they exercise the exact retry ladder a real
// connection reset would.
func WithChaos(in *chaos.Injector) Option {
	return func(c *Client) { c.chaos = in }
}

// Client talks to one parrotd instance.
type Client struct {
	base    string
	hc      *http.Client
	retry   RetryPolicy
	headers map[string]string
	chaos   *chaos.Injector
}

// New builds a client for a server base URL, e.g. "http://127.0.0.1:8044".
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		// No global client timeout: matrix SSE streams legitimately run for
		// minutes. Per-call deadlines come from the caller's context.
		hc:    &http.Client{},
		retry: RetryPolicy{}.withDefaults(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the server base URL.
func (c *Client) Base() string { return c.base }

// IsTransportErr reports whether an error from this client is a
// transport-level failure (dial refused, reset, timeout) as opposed to an
// HTTP-level response the server actually produced or the caller's own
// context ending.
func IsTransportErr(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// HTTPError is a non-200 response the server actually produced, carrying
// the status and any back-off hint (Retry-After / X-Parrot-Retry-After-Ms
// header, or the JSON body's retryAfterMs) from a 429 shed.
type HTTPError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("server: %s (HTTP %d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("server: HTTP %d", e.Status)
}

// AsHTTPError unwraps an HTTP-level error from this client.
func AsHTTPError(err error) (*HTTPError, bool) {
	var he *HTTPError
	ok := errors.As(err, &he)
	return he, ok
}

// retryable reports whether an attempt outcome warrants another try:
// transport errors, 5xx responses (the server never 5xxes a valid run
// request except under transient overload or drain), and 429 sheds — but a
// shed only when the server attached a Retry-After hint, so a client never
// hammers a server that is explicitly load-shedding without telling it when
// to come back. Plain 4xxes are the caller's bug and never retry.
func retryable(err error) bool {
	if he, ok := AsHTTPError(err); ok {
		return he.Status >= 500 ||
			(he.Status == http.StatusTooManyRequests && he.RetryAfter > 0)
	}
	return IsTransportErr(err)
}

// do issues one request built by build, retrying per the policy. It
// returns the final response (status 200, body open) and the attempt
// count; non-200 final responses are decoded into an error.
//
// Two deadline rules keep retries honest under overload: a sleep is never
// started that the remaining ctx budget cannot cover (bail with the last
// error instead — sleeping into a dead deadline just delays the failure),
// and each attempt re-stamps X-Parrot-Deadline with the budget still left,
// so the server sees the caller's true remaining patience, not the
// original one. A server Retry-After hint overrides the exponential
// backoff for the following sleep.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error)) (*http.Response, int, error) {
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			wait := c.retry.Backoff(attempt - 1)
			if he, ok := AsHTTPError(lastErr); ok && he.RetryAfter > 0 {
				wait = he.RetryAfter
			}
			if d, ok := ctx.Deadline(); ok && time.Until(d) < wait {
				return nil, attempt, lastErr
			}
			if !Sleep(ctx, wait) {
				return nil, attempt, lastErr
			}
		}
		req, err := build()
		if err != nil {
			return nil, attempt + 1, err
		}
		for k, v := range c.headers {
			req.Header.Set(k, v)
		}
		if d, ok := ctx.Deadline(); ok {
			remaining := time.Until(d)
			if remaining <= 0 {
				if lastErr != nil {
					return nil, attempt, lastErr
				}
				// ctx.Err() can still race to nil right at expiry; never
				// return (nil, nil) to callers expecting a response.
				if err := ctx.Err(); err != nil {
					return nil, attempt, err
				}
				return nil, attempt, context.DeadlineExceeded
			}
			ms := remaining.Milliseconds()
			if ms < 1 {
				ms = 1
			}
			req.Header.Set(proto.DeadlineHeader, strconv.FormatInt(ms, 10))
		}
		if cerr := c.chaos.Inject("client.request", req.URL.Path); cerr != nil {
			lastErr = cerr
			continue // transport-class by construction: always retryable
		}
		resp, err := c.hc.Do(req)
		if err == nil && resp.StatusCode == http.StatusOK {
			return resp, attempt + 1, nil
		}
		if err == nil {
			herr := decodeErr(resp)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			lastErr = herr
			if !retryable(herr) {
				return nil, attempt + 1, herr
			}
		} else {
			lastErr = err
			if !retryable(err) {
				return nil, attempt + 1, err
			}
		}
	}
	return nil, c.retry.MaxAttempts, lastErr
}

func (c *Client) postJSON(ctx context.Context, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, attempts, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return attempts, err
	}
	defer resp.Body.Close()
	return attempts, json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, _, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeErr turns a non-200 response into an *HTTPError, harvesting the
// back-off hint from (in precedence order) the millisecond-precision
// X-Parrot-Retry-After-Ms header, the standard whole-second Retry-After,
// then the JSON body's retryAfterMs.
func decodeErr(resp *http.Response) error {
	he := &HTTPError{Status: resp.StatusCode}
	if v := resp.Header.Get(proto.RetryAfterMsHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			he.RetryAfter = proto.Duration(ms, time.Millisecond)
		}
	}
	if he.RetryAfter == 0 {
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.ParseInt(v, 10, 64); err == nil && secs > 0 {
				he.RetryAfter = proto.Duration(secs, time.Second)
			}
		}
	}
	var e proto.Error
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&e); err == nil {
		he.Msg = e.Error
		if he.RetryAfter == 0 && e.RetryAfterMs > 0 {
			he.RetryAfter = proto.Duration(e.RetryAfterMs, time.Millisecond)
		}
	}
	return he
}

// verifyRun checks a run response's result against its reported digest.
func verifyRun(r *proto.RunResponse) error {
	if r.Result == nil {
		return fmt.Errorf("client: response carries no result")
	}
	if r.ResultDigest == "" {
		return nil // older/thin servers: nothing to verify against
	}
	if got := experiments.ResultDigest(r.Result); got != r.ResultDigest {
		return fmt.Errorf("client: result digest mismatch (got %.12s, want %.12s): transport corruption", got, r.ResultDigest)
	}
	return nil
}

// Run requests one simulation cell. The response's Attempts field reports
// how many transport attempts the retry policy spent (1 = first try).
func (c *Client) Run(ctx context.Context, req proto.RunRequest) (*proto.RunResponse, error) {
	var out proto.RunResponse
	attempts, err := c.postJSON(ctx, "/v1/run", req, &out)
	if err != nil {
		return nil, err
	}
	if err := verifyRun(&out); err != nil {
		return nil, err
	}
	out.Attempts = attempts
	return &out, nil
}

// Result fetches a cached cell by content address (404 → error).
func (c *Client) Result(ctx context.Context, digest string) (*proto.RunResponse, error) {
	var out proto.RunResponse
	if err := c.getJSON(ctx, "/v1/results/"+digest, &out); err != nil {
		return nil, err
	}
	if err := verifyRun(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches /healthz — also the cheap reachability probe the -remote
// fallbacks use.
func (c *Client) Health(ctx context.Context) (*proto.Health, error) {
	var out proto.Health
	if err := c.getJSON(ctx, "/healthz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ping probes reachability with a short deadline.
func (c *Client) Ping(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	_, err := c.Health(ctx)
	return err
}

// Ready probes /readyz: nil means the node is accepting routed traffic; a
// draining or still-prewarming node answers 503 and Ready returns an error
// naming the reason. Cluster heartbeats use this, so not-ready nodes are
// routed around rather than treated as live.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	for k, v := range c.headers {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body proto.Ready
	_ = json.NewDecoder(io.LimitReader(resp.Body, 4<<10)).Decode(&body)
	if resp.StatusCode == http.StatusOK && body.Ready {
		return nil
	}
	if body.Reason != "" {
		return fmt.Errorf("not ready: %s (HTTP %d)", body.Reason, resp.StatusCode)
	}
	return fmt.Errorf("not ready: HTTP %d", resp.StatusCode)
}

// Cluster fetches /clusterz — the node's view of membership and ring.
func (c *Client) Cluster(ctx context.Context) (*proto.ClusterStatus, error) {
	var out proto.ClusterStatus
	if err := c.getJSON(ctx, "/clusterz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MetricsText fetches the Prometheus text exposition from /metricsz,
// parsed into series — the service's one stats encoding. parrotctl's
// top/cluster/expect views consume this.
func (c *Client) MetricsText(ctx context.Context) (*telemetry.Exposition, error) {
	resp, _, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metricsz", nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return telemetry.ParseExposition(resp.Body)
}

// Trace fetches a request's span timeline as raw Chrome trace-event JSON
// (the /v1/trace/{id} body, suitable for chrome://tracing / Perfetto).
func (c *Client) Trace(ctx context.Context, requestID string) ([]byte, error) {
	resp, _, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/trace/"+requestID, nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// TraceSpans fetches a request's raw span records
// (/v1/trace/{id}?format=spans).
func (c *Client) TraceSpans(ctx context.Context, requestID string) (*telemetry.SpansDoc, error) {
	var out telemetry.SpansDoc
	if err := c.getJSON(ctx, "/v1/trace/"+requestID+"?format=spans", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Matrix requests a model × application fan-out, relaying each SSE
// progress event to onProgress (may be nil) and returning the terminal
// result. Every cell's result is digest-verified.
func (c *Client) Matrix(ctx context.Context, req proto.MatrixRequest, onProgress func(proto.Progress)) (*proto.MatrixResponse, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	// Only the initial connection retries; a failure mid-stream surfaces as
	// an error (a matrix is not transparently restartable from the client).
	resp, _, err := c.do(ctx, func() (*http.Request, error) {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/matrix", bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("Accept", "text/event-stream")
		return hreq, nil
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	var out *proto.MatrixResponse
	err = readSSE(resp.Body, func(event string, data []byte) error {
		switch event {
		case "progress":
			if onProgress != nil {
				var p proto.Progress
				if err := json.Unmarshal(data, &p); err != nil {
					return fmt.Errorf("client: bad progress event: %w", err)
				}
				onProgress(p)
			}
		case "error":
			var e proto.Error
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				return fmt.Errorf("client: server reported an unparseable error")
			}
			return fmt.Errorf("server: %s", e.Error)
		case "result":
			var m proto.MatrixResponse
			if err := json.Unmarshal(data, &m); err != nil {
				return fmt.Errorf("client: bad result event: %w", err)
			}
			out = &m
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("client: stream ended without a result event")
	}
	for i := range out.Cells {
		cell := &out.Cells[i]
		if cell.Result == nil {
			// An explicit per-cell failure is a legal partial-matrix entry;
			// a silently absent result is still a protocol violation.
			if cell.Error != "" {
				continue
			}
			return nil, fmt.Errorf("client: cell %s/%s missing result", cell.Model, cell.App)
		}
	}
	return out, nil
}

// readSSE parses a Server-Sent-Events stream, invoking fn once per event.
// Only the subset parrotd emits is supported: "event:" + single-line
// "data:" blocks separated by blank lines.
func readSSE(r io.Reader, fn func(event string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	// Matrix result events carry the full cell set: allow large lines.
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	event := ""
	var data []byte
	flush := func() error {
		if event == "" && data == nil {
			return nil
		}
		err := fn(event, data)
		event, data = "", nil
		return err
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append([]byte(nil), strings.TrimPrefix(line, "data: ")...)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}
