package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"parrot/internal/chaos"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/telemetry"
	tlog "parrot/internal/telemetry/log"
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
	// HedgeMin/HedgeMax clamp the hedged-request delay derived from the
	// target node's observed p99 (<=0 = 20ms / 2s). HedgeMin also serves
	// as the delay floor while too few samples exist.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// BreakerThreshold/BreakerCooldown parameterize per-node breakers
	// (<=0 = 3 / 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// LoadFactor is the bounded-load headroom for failover target picks
	// (<=0 = 1.25): a substitute node is skipped while it carries more
	// than fair-share × factor of this client's in-flight cells.
	LoadFactor float64
	// Registry receives parrot_cluster_* client metrics (nil-safe).
	Registry *telemetry.Registry
	// Log receives routing events (nil = silent).
	Log *tlog.Logger
	// Chaos injects deterministic faults on the routed path: site
	// "cluster.partition" masks this node's view of a peer (nil = inert).
	Chaos *chaos.Injector
}

// Client routes cell requests to ring owners with retries, hedging and
// failover. One Client serves a whole node; all methods are safe for
// concurrent use.
type Client struct {
	reg *Registry
	cfg ClientConfig
	log *tlog.Logger

	mu       sync.Mutex
	clients  map[string]*client.Client
	breakers map[string]*Breaker
	lats     map[string]*latWindow
	inflight map[string]int

	retries      *telemetry.Counter
	reroutes     *telemetry.Counter
	hedges       *telemetry.Counter
	hedgesWon    *telemetry.Counter
	hedgesLost   *telemetry.Counter
	hedgeCancels *telemetry.Counter
	breakerOpen  *telemetry.Counter
}

// NewClient builds the routing client over a membership registry.
func NewClient(reg *Registry, cfg ClientConfig) *Client {
	cfg.Retry = cfg.Retry.Or(client.RetryPolicy{
		MaxAttempts: 4, BaseBackoff: 25 * time.Millisecond, MaxBackoff: time.Second,
	})
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = 20 * time.Millisecond
	}
	if cfg.HedgeMax <= 0 {
		cfg.HedgeMax = 2 * time.Second
	}
	if cfg.LoadFactor <= 0 {
		cfg.LoadFactor = 1.25
	}
	c := &Client{
		reg:      reg,
		cfg:      cfg,
		log:      cfg.Log.With(tlog.F("component", "cluster.client")),
		clients:  make(map[string]*client.Client),
		breakers: make(map[string]*Breaker),
		lats:     make(map[string]*latWindow),
		inflight: make(map[string]int),
	}
	mreg := cfg.Registry
	c.retries = mreg.Counter("parrot_cluster_retries_total",
		"Routed cell attempts beyond the first (backoff retries).")
	c.reroutes = mreg.Counter("parrot_cluster_reroutes_total",
		"Cells re-routed because the ring epoch changed between attempts.")
	c.hedges = mreg.Counter("parrot_cluster_hedges_total",
		"Hedged second requests fired after the p99-derived delay.")
	c.hedgesWon = mreg.Counter("parrot_cluster_hedges_won_total",
		"Hedged requests that completed before the primary.")
	c.hedgesLost = mreg.Counter("parrot_cluster_hedges_lost_total",
		"Hedged requests beaten by the primary.")
	c.hedgeCancels = mreg.Counter("parrot_cluster_hedge_cancels_total",
		"Loser requests cancelled because the other leg finished first.")
	c.breakerOpen = mreg.Counter("parrot_cluster_breaker_opens_total",
		"Per-node circuit breaker open transitions.")
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

func (c *Client) breaker(node string) *Breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.breakers[node]
	if !ok {
		b = NewBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		c.breakers[node] = b
	}
	return b
}

func (c *Client) lat(node string) *latWindow {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.lats[node]
	if !ok {
		w = &latWindow{}
		c.lats[node] = w
	}
	return w
}

func (c *Client) loadOf(node string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight[node]
}

func (c *Client) addLoad(node string, d int) {
	c.mu.Lock()
	c.inflight[node] += d
	c.mu.Unlock()
}

// BreakerState returns a peer breaker's display state ("closed" when no
// traffic has minted one yet).
func (c *Client) BreakerState(node string, now time.Time) string {
	c.mu.Lock()
	b := c.breakers[node]
	c.mu.Unlock()
	if b == nil {
		return "closed"
	}
	return b.State(now)
}

// RouteInfo reports how a routed cell was ultimately served.
type RouteInfo struct {
	// Node is the peer that produced the response.
	Node string
	// Attempts counts routed attempts (1 = first try succeeded).
	Attempts int
	// Hedged reports whether a hedge fired; HedgeWon whether it won.
	Hedged   bool
	HedgeWon bool
	// Recovered reports that the cell was NOT served by its first-choice
	// target: a retry landed elsewhere, a hedge won, or the ring changed
	// under the cell. The smoke test's "zero failed cells under node
	// death" gate counts these.
	Recovered bool
}

// RunRemote executes a cell request on its ring owner, failing over to
// successors with bounded load, retrying with backoff + jitter, and
// hedging slow attempts. Every attempt re-snapshots the ring, so a
// membership change mid-matrix re-routes automatically. Returns
// ErrRouteLocal when the best eligible target is this node.
func (c *Client) RunRemote(ctx context.Context, req proto.RunRequest, digest string) (*proto.RunResponse, RouteInfo, error) {
	var (
		info      RouteInfo
		lastErr   error
		firstPick string
		prevEpoch uint64
		havePrev  bool
	)
	maxAttempts := c.cfg.Retry.MaxAttempts
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, info, err
		}
		ring, epoch := c.reg.Ring()
		if havePrev && epoch != prevEpoch {
			c.reroutes.Inc()
			info.Recovered = true
		}
		prevEpoch, havePrev = epoch, true

		target, ok := c.pick(ring, digest, attempt)
		if !ok {
			if lastErr != nil {
				return nil, info, fmt.Errorf("cluster: no eligible node for %.12s… (last error: %w)", digest, lastErr)
			}
			return nil, info, fmt.Errorf("cluster: no eligible node for %.12s…", digest)
		}
		if firstPick == "" {
			firstPick = target
		}
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
		// Per-attempt deadline carving: split the remaining budget evenly
		// over the attempts still available (floor 10ms), so one attempt
		// stuck on a slow or partitioned node cannot eat the whole deadline
		// — the cut-off attempt fails over to a successor with its own
		// slice. The serve client re-stamps X-Parrot-Deadline from this
		// carved ctx, so the peer sees the slice, not the full budget. The
		// slice is released as soon as its attempt ends.
		var (
			actx    context.Context
			acancel context.CancelFunc
		)
		if d, ok := ctx.Deadline(); ok {
			slice := time.Until(d) / time.Duration(maxAttempts-attempt)
			if slice < 10*time.Millisecond {
				slice = 10 * time.Millisecond
			}
			actx, acancel = context.WithTimeout(ctx, slice)
		} else {
			actx, acancel = context.WithCancel(ctx)
		}
		resp, node, hedged, hedgeWon, err := c.runHedged(actx, ring, digest, target, req)
		acancel()
		if hedged {
			info.Hedged = true
		}
		if err == nil {
			info.Node = node
			info.HedgeWon = hedgeWon
			if node != firstPick || attempt > 0 || hedgeWon {
				info.Recovered = true
			}
			return resp, info, nil
		}
		lastErr = err
		if attempt+1 < maxAttempts && !client.Sleep(ctx, c.cfg.Retry.Backoff(attempt)) {
			return nil, info, ctx.Err()
		}
	}
	return nil, info, fmt.Errorf("cluster: cell %.12s… failed after %d attempts: %w",
		digest, maxAttempts, lastErr)
}

// pick chooses the attempt-th eligible target in ring order for a digest.
// Eligibility excludes dead peers and open breakers; the bounded-load rule
// skips nodes already carrying more than fair-share × LoadFactor of this
// client's in-flight cells (last resort wins regardless). Attempt 0 on a
// healthy ring is always the true owner, keeping cache placement exact.
func (c *Client) pick(ring *Ring, digest string, attempt int) (string, bool) {
	cands := ring.Candidates(digest, 0)
	if len(cands) == 0 {
		return "", false
	}
	now := time.Now()
	elig := make([]string, 0, len(cands))
	total := 0
	for _, n := range cands {
		if n != c.reg.Self() {
			if c.reg.StateOf(n) == StateDead || !c.breaker(n).Allow(now) {
				continue
			}
		}
		elig = append(elig, n)
		total += c.loadOf(n)
	}
	if len(elig) == 0 {
		// Everything gated: fall back to the raw owner so the retry loop
		// surfaces a real error (or the half-open trial goes through).
		return cands[0], true
	}
	i := attempt
	if i >= len(elig) {
		i = len(elig) - 1
	}
	if i == 0 && elig[0] == cands[0] {
		// A healthy owner is never load-skipped on the first attempt: cache
		// placement must stay exact, concurrency notwithstanding.
		return elig[0], true
	}
	// Failover picks spread by bounded load: advance past overloaded
	// substitutes, never past the end.
	cap := BoundedCap(total+1, len(elig), c.cfg.LoadFactor)
	for i < len(elig)-1 && c.loadOf(elig[i]) >= cap {
		i++
	}
	return elig[i], true
}

// hedgeTarget returns the best secondary for a hedge: the next eligible
// non-self candidate after the primary.
func (c *Client) hedgeTarget(ring *Ring, digest, primary string) string {
	now := time.Now()
	for _, n := range ring.Candidates(digest, 0) {
		if n == primary || n == c.reg.Self() {
			continue
		}
		if c.reg.StateOf(n) == StateDead || !c.breaker(n).Allow(now) {
			continue
		}
		return n
	}
	return ""
}

// hedgeDelay derives the hedge trigger from the node's observed p99,
// clamped into [HedgeMin, HedgeMax]. Sparse samples hedge conservatively.
func (c *Client) hedgeDelay(node string) time.Duration {
	w := c.lat(node)
	p99, n := w.p99()
	if n < 8 {
		return c.cfg.HedgeMax
	}
	d := time.Duration(float64(p99) * 1.25)
	if d < c.cfg.HedgeMin {
		d = c.cfg.HedgeMin
	}
	if d > c.cfg.HedgeMax {
		d = c.cfg.HedgeMax
	}
	return d
}

// runHedged issues one attempt against target, firing a hedged second
// request to the next candidate if the primary is slower than the
// p99-derived delay. First success wins; the loser is cancelled.
func (c *Client) runHedged(ctx context.Context, ring *Ring, digest, target string, req proto.RunRequest) (resp *proto.RunResponse, node string, hedged, hedgeWon bool, err error) {
	type outcome struct {
		resp  *proto.RunResponse
		err   error
		node  string
		hedge bool
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)

	issue := func(n string, hedge bool) {
		c.addLoad(n, 1)
		defer c.addLoad(n, -1)
		t0 := time.Now()
		// Chaos site "cluster.partition": a masked (self → n) pair behaves
		// exactly like an unreachable peer — transport-class error, breaker
		// and membership evidence included.
		var r *proto.RunResponse
		e := c.cfg.Chaos.PartitionErr("cluster.partition", c.reg.Self(), n)
		if e == nil {
			r, e = c.nodeClient(n).Run(cctx, req)
		}
		el := time.Since(t0)
		opened := c.breaker(n).Observe(e == nil, time.Now())
		if opened {
			c.breakerOpen.Inc()
			c.log.Warn("breaker opened", tlog.F("peer", n), tlog.F("err", errStr(e)))
		}
		if e == nil {
			c.lat(n).record(el)
			c.reg.ReportSuccess(n)
		} else if cctx.Err() == nil && client.IsTransportErr(e) {
			// Hard connect errors are passive death evidence; HTTP-level
			// errors (4xx/5xx bodies) are not.
			c.reg.ReportFailure(n, e)
		}
		ch <- outcome{resp: r, err: e, node: n, hedge: hedge}
	}

	go issue(target, false)
	pending := 1
	timer := time.NewTimer(c.hedgeDelay(target))
	defer timer.Stop()

	var firstErr error
	for pending > 0 {
		select {
		case <-ctx.Done():
			return nil, "", hedged, false, ctx.Err()
		case <-timer.C:
			if hedged {
				continue
			}
			if sec := c.hedgeTarget(ring, digest, target); sec != "" {
				hedged = true
				c.hedges.Inc()
				pending++
				go issue(sec, true)
			}
		case o := <-ch:
			pending--
			if o.err == nil {
				if o.hedge {
					c.hedgesWon.Inc()
				} else if hedged {
					c.hedgesLost.Inc()
				}
				if pending > 0 {
					// The other leg is still in flight: cancelling it now
					// (instead of letting it run to completion) is what keeps
					// hedging from doubling fleet load under overload.
					c.hedgeCancels.Inc()
				}
				cancel() // release the loser
				return o.resp, o.node, hedged, o.hedge, nil
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", o.node, o.err)
			}
			if pending == 0 && !hedged {
				return nil, "", hedged, false, firstErr
			}
			// Primary failed with a hedge still pending (or vice versa):
			// wait for the survivor.
		}
	}
	return nil, "", hedged, false, firstErr
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// latWindow is a small sliding window of request latencies; p99 over 128
// samples is cheap enough to sort on demand (hedge setup only).
type latWindow struct {
	mu  sync.Mutex
	buf [128]time.Duration
	n   int // total recorded
}

func (w *latWindow) record(d time.Duration) {
	w.mu.Lock()
	w.buf[w.n%len(w.buf)] = d
	w.n++
	w.mu.Unlock()
}

// p99 returns the window's 99th percentile and the sample count.
func (w *latWindow) p99() (time.Duration, int) {
	w.mu.Lock()
	n := w.n
	if n > len(w.buf) {
		n = len(w.buf)
	}
	tmp := make([]time.Duration, n)
	copy(tmp, w.buf[:n])
	w.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := int(float64(n)*0.99) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return tmp[idx], n
}
