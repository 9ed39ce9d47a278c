package cluster

import (
	"context"
	"errors"
	"time"

	"parrot/internal/chaos"
	"parrot/internal/serve/proto"
	"parrot/internal/telemetry"
	tlog "parrot/internal/telemetry/log"
)

// Config parameterizes a node's cluster layer.
type Config struct {
	// Advertise is this node's base URL as peers reach it
	// (e.g. "http://10.0.0.7:7077").
	Advertise string
	// Peers is the static seed list of every node's advertised URL.
	Peers []string
	// VNodes is the consistent-hash virtual-node count (<=0 = DefaultVNodes).
	VNodes int
	// Probe/suspect/dead knobs; zero values take Registry defaults.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	SuspectAfter  int
	DeadAfter     time.Duration
	// Client tunes the routing client; zero values take ClientConfig
	// defaults.
	Client ClientConfig
	// Probe overrides the health check (nil = GET /readyz on the peer).
	Probe func(ctx context.Context, node string) error
	// Registry receives parrot_cluster_* metrics (nil-safe).
	Registry *telemetry.Registry
	// Log receives cluster events (nil = silent).
	Log *tlog.Logger
	// Chaos injects deterministic faults on the routing and membership
	// paths — partition masks, probe failures, clock skew (nil = inert).
	Chaos *chaos.Injector
}

// Cluster is the façade the serving layer composes: membership, routing,
// the resilient client, and the routing-outcome metric families.
type Cluster struct {
	members *Registry
	cli     *Client

	routeLocal   *telemetry.Counter
	routeRemote  *telemetry.Counter
	routeRescued *telemetry.Counter
	routeReplica *telemetry.Counter
	forwardsOK   *telemetry.Counter
	forwardsErr  *telemetry.Counter
	recoveries   *telemetry.Counter
	hopStops     *telemetry.Counter
}

// New builds the cluster layer. The default prober GETs each peer's
// /readyz, so draining or still-prewarming peers are routed around.
func New(cfg Config) *Cluster {
	c := &Cluster{}
	probe := cfg.Probe
	if probe == nil {
		probe = func(ctx context.Context, node string) error {
			return c.cli.nodeClient(node).Ready(ctx)
		}
	}
	c.members = NewRegistry(RegistryConfig{
		Self:          cfg.Advertise,
		Peers:         cfg.Peers,
		VNodes:        cfg.VNodes,
		ProbeInterval: cfg.ProbeInterval,
		ProbeTimeout:  cfg.ProbeTimeout,
		SuspectAfter:  cfg.SuspectAfter,
		DeadAfter:     cfg.DeadAfter,
		Probe:         probe,
		Registry:      cfg.Registry,
		Log:           cfg.Log,
		Chaos:         cfg.Chaos,
	})
	ccfg := cfg.Client
	ccfg.Registry = cfg.Registry
	ccfg.Chaos = cfg.Chaos
	c.cli = NewClient(c.members, ccfg)

	reg := cfg.Registry
	c.routeLocal = reg.Counter("parrot_cluster_route_total",
		"Cell routing decisions by destination.", "dest", "local")
	c.routeRemote = reg.Counter("parrot_cluster_route_total",
		"Cell routing decisions by destination.", "dest", "remote")
	c.routeRescued = reg.Counter("parrot_cluster_route_total",
		"Cell routing decisions by destination.", "dest", "rescued")
	c.routeReplica = reg.Counter("parrot_cluster_route_total",
		"Cell routing decisions by destination.", "dest", "replica")
	c.forwardsOK = reg.Counter("parrot_cluster_forwards_total",
		"Non-owned /v1/run requests proxied to their ring owner.", "outcome", "ok")
	c.forwardsErr = reg.Counter("parrot_cluster_forwards_total",
		"Non-owned /v1/run requests proxied to their ring owner.", "outcome", "error")
	c.recoveries = reg.Counter("parrot_cluster_recoveries_total",
		"Cells served despite their first-choice owner being unavailable.")
	c.hopStops = reg.Counter("parrot_cluster_hop_guard_total",
		"Requests served locally because they already carried the forwarded hop guard.")
	return c
}

// Start launches the membership probe loop.
func (c *Cluster) Start() { c.members.Start() }

// Stop terminates the probe loop.
func (c *Cluster) Stop() { c.members.Stop() }

// Self returns this node's advertised URL.
func (c *Cluster) Self() string { return c.members.Self() }

// Members exposes the membership registry.
func (c *Cluster) Members() *Registry { return c.members }

// Owner resolves a digest's current ring owner and whether it is this
// node. An empty ring (cannot happen — self is always a member) owns
// everything locally.
func (c *Cluster) Owner(digest string) (node string, self bool) {
	node, ok := c.members.Owner(digest)
	if !ok {
		return c.Self(), true
	}
	return node, node == c.Self()
}

// Execute routes one cell request to its owner (with retries and
// failover) and maintains the route/recovery counters. A returned
// ErrRouteLocal means the caller should run the cell locally — it is this
// node's to serve after ring changes or because every peer is excluded.
func (c *Cluster) Execute(ctx context.Context, req proto.RunRequest, digest string) (*proto.RunResponse, RouteInfo, error) {
	resp, info, err := c.cli.RunRemote(ctx, req, digest)
	if err == nil {
		c.routeRemote.Inc()
		if info.Recovered {
			c.recoveries.Inc()
		}
	} else if errors.Is(err, ErrRouteLocal) && info.Recovered {
		// The cell fell back to this node after remote failures; the caller
		// will serve it locally — count the recovery here so the zero-failed-
		// cells gate sees it regardless of which landing path saved the cell.
		c.recoveries.Inc()
	}
	return resp, info, err
}

// NoteLocal records a cell served locally because this node owns it.
func (c *Cluster) NoteLocal() { c.routeLocal.Inc() }

// NoteReplica records a peer-owned cell answered from this node's memory
// without the forward hop.
func (c *Cluster) NoteReplica() { c.routeReplica.Inc() }

// NoteRescued records a cell rescued locally after its remote route
// failed — the fan-out's last line of defence (and a recovery).
func (c *Cluster) NoteRescued() {
	c.routeRescued.Inc()
	c.recoveries.Inc()
}

// NoteForward records a /v1/run proxy outcome.
func (c *Cluster) NoteForward(ok bool) {
	if ok {
		c.forwardsOK.Inc()
	} else {
		c.forwardsErr.Inc()
	}
}

// NoteHopStop records a request served locally under the hop guard.
func (c *Cluster) NoteHopStop() { c.hopStops.Inc() }

// Status snapshots the cluster for /clusterz.
func (c *Cluster) Status() proto.ClusterStatus {
	ring, epoch := c.members.Ring()
	inRing := make(map[string]bool, ring.Len())
	for _, n := range ring.Nodes() {
		inRing[n] = true
	}
	st := proto.ClusterStatus{
		Self:    c.Self(),
		Epoch:   epoch,
		VNodes:  ring.VNodes(),
		Members: ring.Nodes(),
	}
	for _, n := range c.members.Snapshot() {
		st.Nodes = append(st.Nodes, proto.ClusterNode{
			ID:          n.ID,
			Self:        n.Self,
			State:       n.State.String(),
			InRing:      inRing[n.ID],
			ConsecFails: n.ConsecFails,
			Probes:      n.Probes,
			Fails:       n.Fails,
			Reports:     n.Reports,
			Flaps:       n.Flaps,
			Rejoins:     n.Rejoins,
			LastErr:     n.LastErr,
		})
	}
	return st
}
