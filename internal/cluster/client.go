package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"parrot/internal/chaos"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/telemetry"
)

// ForwardedHeader is the hop guard: cluster-internal requests carry it
// (value = the sending node's ID) and a receiving node never re-forwards a
// request that has it — one hop maximum, no forwarding loops even when two
// nodes transiently disagree about ring ownership.
const ForwardedHeader = "X-Parrot-Forwarded"

// ErrRouteLocal is returned by RunRemote when, after ring changes or
// failovers, the best route for the digest is this node itself — the
// caller should execute locally (it may well be the new owner).
var ErrRouteLocal = errors.New("cluster: route is local")

// ClientConfig parameterizes the routing client.
type ClientConfig struct {
	// Retry bounds routed attempts per cell across nodes and shapes the
	// backoff between them (zero fields = 4 attempts, 25ms / 1s).
	Retry client.RetryPolicy
	// Registry receives parrot_cluster_* client metrics (nil-safe).
	Registry *telemetry.Registry
	// Chaos injects deterministic faults on the routed path: site
	// "cluster.partition" masks this node's view of a peer (nil = inert).
	Chaos *chaos.Injector
}

// Client routes cell requests to ring owners with retries and failover
// onto ring successors. Membership is its one failure detector: a peer
// that is not alive is skipped until a probe brings it back. One Client
// serves a whole node; all methods are safe for concurrent use.
type Client struct {
	reg *Registry
	cfg ClientConfig

	mu      sync.Mutex
	clients map[string]*client.Client

	retries  *telemetry.Counter
	reroutes *telemetry.Counter
}

// NewClient builds the routing client over a membership registry.
func NewClient(reg *Registry, cfg ClientConfig) *Client {
	cfg.Retry = cfg.Retry.Or(client.RetryPolicy{
		MaxAttempts: 4, BaseBackoff: 25 * time.Millisecond, MaxBackoff: time.Second,
	})
	c := &Client{
		reg:     reg,
		cfg:     cfg,
		clients: make(map[string]*client.Client),
	}
	mreg := cfg.Registry
	c.retries = mreg.Counter("parrot_cluster_retries_total",
		"Routed cell attempts beyond the first (backoff retries).")
	c.reroutes = mreg.Counter("parrot_cluster_reroutes_total",
		"Cells re-routed because the ring epoch changed between attempts.")
	return c
}

// nodeClient returns (lazily building) the HTTP client for a peer. Peer
// clients disable the library's own transport retry — this layer owns the
// retry budget — and stamp the hop guard so receivers never re-forward.
func (c *Client) nodeClient(node string) *client.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.clients[node]
	if !ok {
		cl = client.New(node,
			client.WithRetry(client.RetryPolicy{MaxAttempts: 1}),
			client.WithHeader(ForwardedHeader, c.reg.Self()))
		c.clients[node] = cl
	}
	return cl
}

// RouteInfo reports how a routed cell was ultimately served.
type RouteInfo struct {
	// Node is the peer that produced the response.
	Node string
	// Attempts counts routed attempts (1 = first try succeeded).
	Attempts int
	// Recovered reports that the cell was NOT served by its first-choice
	// target: a retry landed elsewhere or the ring changed under the cell.
	// The smoke test's "zero failed cells under node death" gate counts
	// these.
	Recovered bool
}

// RunRemote executes a cell request on its ring owner, failing over to
// ring successors and retrying with backoff + jitter. Every attempt
// re-snapshots the ring, so a membership change mid-matrix re-routes
// automatically. Returns ErrRouteLocal when the best eligible target is
// this node.
func (c *Client) RunRemote(ctx context.Context, req proto.RunRequest, digest string) (*proto.RunResponse, RouteInfo, error) {
	var (
		info      RouteInfo
		lastErr   error
		prevEpoch uint64
	)
	maxAttempts := c.cfg.Retry.MaxAttempts
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, info, err
		}
		ring, epoch := c.reg.Ring()
		if attempt > 0 && epoch != prevEpoch {
			c.reroutes.Inc()
			info.Recovered = true
		}
		prevEpoch = epoch

		target := c.pick(ring, digest, attempt)
		if target == c.reg.Self() {
			if lastErr != nil {
				// Falling back to self after a failed remote attempt is a
				// recovery, not plain local ownership.
				info.Recovered = true
			}
			return nil, info, ErrRouteLocal
		}

		info.Attempts = attempt + 1
		if attempt > 0 {
			c.retries.Inc()
		}
		resp, err := c.attempt(ctx, target, req, maxAttempts-attempt)
		if err == nil {
			info.Node = target
			if attempt > 0 {
				info.Recovered = true
			}
			return resp, info, nil
		}
		lastErr = fmt.Errorf("%s: %w", target, err)
		if attempt+1 < maxAttempts && !client.Sleep(ctx, c.cfg.Retry.Backoff(attempt)) {
			return nil, info, ctx.Err()
		}
	}
	return nil, info, fmt.Errorf("cluster: cell %.12s… failed after %d attempts: %w",
		digest, maxAttempts, lastErr)
}

// attempt sends one request to node and reports the outcome to
// membership. Per-attempt deadline carving: the remaining budget is split
// evenly over the `left` attempts still available (floor 10ms), so one
// attempt stuck on a slow or partitioned node cannot eat the whole
// deadline — the cut-off attempt fails over to a successor with its own
// slice. The serve client re-stamps X-Parrot-Deadline from the carved ctx,
// so the peer sees the slice, not the full budget, and the peer's handler
// is released when the slice ends.
func (c *Client) attempt(ctx context.Context, node string, req proto.RunRequest, left int) (*proto.RunResponse, error) {
	if d, ok := ctx.Deadline(); ok {
		slice := max(time.Until(d)/time.Duration(left), 10*time.Millisecond)
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, slice)
		defer cancel()
	}
	// Chaos site "cluster.partition": a masked (self → node) pair behaves
	// exactly like an unreachable peer, membership evidence included.
	var resp *proto.RunResponse
	err := c.cfg.Chaos.PartitionErr("cluster.partition", c.reg.Self(), node)
	if err == nil {
		resp, err = c.nodeClient(node).Run(ctx, req)
	}
	if err == nil {
		c.reg.ReportSuccess(node)
	} else if ctx.Err() == nil && client.IsTransportErr(err) {
		// Hard connect errors are passive death evidence; HTTP-level
		// errors (4xx/5xx bodies) and our own deadline cut-offs are not.
		c.reg.ReportFailure(node, err)
	}
	return resp, err
}

// pick chooses the attempt-th eligible target in ring order for a digest.
// Eligible means this node or a peer membership holds alive: a suspect or
// dead peer is skipped until a successful probe restores it. Attempt 0 on
// a healthy ring is always the true owner, keeping cache placement exact.
// Membership never demotes self or drops it from the ring
// (TestMembershipSelfNeverProbed), so there is always a target.
func (c *Client) pick(ring *Ring, digest string, attempt int) string {
	cands := ring.Candidates(digest, 0)
	elig := make([]string, 0, len(cands))
	for _, n := range cands {
		if n == c.reg.Self() || c.reg.StateOf(n) == StateAlive {
			elig = append(elig, n)
		}
	}
	return elig[min(attempt, len(elig)-1)]
}
