package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"parrot/internal/chaos"
	"parrot/internal/telemetry"
	tlog "parrot/internal/telemetry/log"
)

// State is a peer's health in the membership state machine.
type State uint8

// Node states. The lifecycle is alive → suspect → dead → (rejoined ⇒
// alive). Suspect nodes stay in the ring — ownership must not churn on a
// single dropped probe — but the routing client fails over around them
// until a successful probe makes them alive again. Dead nodes leave the
// ring (bumping the epoch) and rejoin it on the first successful probe.
const (
	StateAlive State = iota
	StateSuspect
	StateDead
)

// String returns the state label used in metrics and status bodies.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// NodeStatus is one peer's observable membership record.
type NodeStatus struct {
	ID   string `json:"id"`
	Self bool   `json:"self"`
	// State is "alive", "suspect" or "dead".
	State State `json:"-"`
	// ConsecFails counts probe/report failures since the last success.
	ConsecFails int `json:"consecFails"`
	// Probes/Fails count active health checks; passive traffic reports
	// (connect errors surfaced by the routing client) land in Reports.
	Probes  uint64 `json:"probes"`
	Fails   uint64 `json:"fails"`
	Reports uint64 `json:"reports"`
	// Flaps counts suspect→alive recoveries; Rejoins counts dead→alive.
	Flaps   uint64 `json:"flaps"`
	Rejoins uint64 `json:"rejoins"`
	LastErr string `json:"lastErr,omitempty"`
}

// nodeState is the registry's internal per-peer record.
type nodeState struct {
	st        NodeStatus
	nextProbe time.Time
	suspectAt time.Time
}

// RegistryConfig parameterizes a membership registry.
type RegistryConfig struct {
	// Self is this node's advertised ID (base URL). It is always a ring
	// member and is never probed.
	Self string
	// Peers is the static seed list of every node's advertised ID; Self is
	// added if absent.
	Peers []string
	// VNodes is the ring's virtual-node count (<=0 = DefaultVNodes).
	VNodes int
	// ProbeInterval paces per-peer health checks (<=0 = 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (<=0 = 1s).
	ProbeTimeout time.Duration
	// SuspectAfter is the consecutive-failure count that moves an alive
	// peer to suspect (<=0 = 2).
	SuspectAfter int
	// DeadAfter is how long a peer may stay suspect (still failing) before
	// it is declared dead and leaves the ring (<=0 = 5s).
	DeadAfter time.Duration
	// Jitter spreads probe scheduling: each next-probe delay is the
	// interval scaled by a uniform factor in [1-Jitter, 1+Jitter]
	// (<=0 = 0.2), so a fleet booted together does not probe in lockstep.
	Jitter float64
	// Probe performs one health check (nil = always healthy; the daemon
	// wires a /readyz GET, so draining or still-prewarming peers are
	// routed around rather than treated as live).
	Probe func(ctx context.Context, node string) error
	// Registry receives parrot_cluster_* membership metrics (nil-safe).
	Registry *telemetry.Registry
	// Log receives membership transitions (nil = silent).
	Log *tlog.Logger
	// Now is the clock (nil = time.Now; tests inject a fake).
	Now func() time.Time
	// Chaos injects deterministic faults on the membership path: site
	// "cluster.probe" fails or delays health checks, "cluster.partition"
	// masks probes to a peer, "cluster.clock" skews this node's probe
	// clock (nil = inert).
	Chaos *chaos.Injector
}

// Registry tracks peer health and derives the routing ring. All methods
// are safe for concurrent use.
type Registry struct {
	cfg RegistryConfig
	log *tlog.Logger

	mu    sync.Mutex
	nodes map[string]*nodeState
	order []string // stable iteration order (sorted at build)
	ring  *Ring
	epoch uint64
	rng   *rand.Rand

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	probesOK, probesFail *telemetry.Counter
	transitions          map[State]*telemetry.Counter
	rejoins              *telemetry.Counter
}

// NewRegistry builds a registry over the seed list. Every node starts
// alive (optimistic: a booting cluster routes immediately; genuinely down
// peers are demoted within SuspectAfter probes + DeadAfter).
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 2
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 5 * time.Second
	}
	if cfg.Jitter <= 0 {
		cfg.Jitter = 0.2
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	r := &Registry{
		cfg:    cfg,
		log:    cfg.Log.With(tlog.F("component", "cluster")),
		nodes:  make(map[string]*nodeState),
		rng:    rand.New(rand.NewSource(int64(keyHash(cfg.Self)) ^ 0x5eed)),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}

	reg := cfg.Registry
	r.probesOK = reg.Counter("parrot_cluster_probes_total",
		"Peer health probes by outcome.", "outcome", "ok")
	r.probesFail = reg.Counter("parrot_cluster_probes_total",
		"Peer health probes by outcome.", "outcome", "fail")
	r.transitions = map[State]*telemetry.Counter{
		StateAlive: reg.Counter("parrot_cluster_transitions_total",
			"Membership state transitions by target state.", "to", "alive"),
		StateSuspect: reg.Counter("parrot_cluster_transitions_total",
			"Membership state transitions by target state.", "to", "suspect"),
		StateDead: reg.Counter("parrot_cluster_transitions_total",
			"Membership state transitions by target state.", "to", "dead"),
	}
	r.rejoins = reg.Counter("parrot_cluster_rejoins_total",
		"Dead peers that rejoined the ring on a successful probe.")
	reg.RegisterCollector(r.collect)

	now := cfg.Now()
	seen := map[string]bool{cfg.Self: true}
	r.addNode(cfg.Self, true, now)
	for _, p := range cfg.Peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.addNode(p, false, now)
	}
	r.rebuildRing()
	return r
}

func (r *Registry) addNode(id string, self bool, now time.Time) {
	r.nodes[id] = &nodeState{
		st:        NodeStatus{ID: id, Self: self, State: StateAlive},
		nextProbe: now.Add(r.jitteredInterval()),
	}
	r.order = append(r.order, id)
}

// jitteredInterval returns the next probe delay: interval × U[1-j, 1+j].
func (r *Registry) jitteredInterval() time.Duration {
	j := r.cfg.Jitter
	f := 1 - j + 2*j*r.rng.Float64()
	return time.Duration(float64(r.cfg.ProbeInterval) * f)
}

// collect emits membership gauges from one coherent snapshot.
func (r *Registry) collect(emit telemetry.Emit) {
	counts := map[State]int{}
	r.mu.Lock()
	for _, n := range r.nodes {
		counts[n.st.State]++
	}
	epoch, members := r.epoch, len(r.ring.Nodes())
	r.mu.Unlock()
	for _, s := range []State{StateAlive, StateSuspect, StateDead} {
		emit("parrot_cluster_nodes", "gauge", "Peers by membership state.",
			float64(counts[s]), "state", s.String())
	}
	emit("parrot_cluster_ring_epoch", "gauge",
		"Monotonic ring version; bumps on every membership change.", float64(epoch))
	emit("parrot_cluster_ring_members", "gauge",
		"Members currently in the routing ring (non-dead).", float64(members))
}

// Start launches the probe loop. Stop (or never starting) leaves the
// registry usable as a static ring.
func (r *Registry) Start() {
	go func() {
		defer close(r.doneCh)
		// A coarse scheduler tick: fine-grained per-node due times are kept
		// in nextProbe, the ticker only bounds wake-up latency.
		tick := r.cfg.ProbeInterval / 4
		if tick < 10*time.Millisecond {
			tick = 10 * time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-r.stopCh:
				return
			case <-t.C:
				r.Tick(r.cfg.Now())
			}
		}
	}()
}

// Stop terminates the probe loop.
func (r *Registry) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	select {
	case <-r.doneCh:
	case <-time.After(2 * time.Second):
	}
}

// Tick probes every peer whose jittered deadline has passed, then applies
// the results to the state machine. Exposed so tests drive the machine
// with a fake clock and no goroutines.
func (r *Registry) Tick(now time.Time) {
	// Chaos site "cluster.clock": skew this node's view of the probe clock,
	// so suspect/dead timers fire early or late the way a drifting host's
	// would. The skew shifts scheduling and the state machine coherently —
	// the same (skewed) now flows into both.
	now = now.Add(r.cfg.Chaos.Skew("cluster.clock"))
	r.mu.Lock()
	due := make([]string, 0, len(r.order))
	for _, id := range r.order {
		n := r.nodes[id]
		if n.st.Self || now.Before(n.nextProbe) {
			continue
		}
		n.nextProbe = now.Add(r.jitteredInterval())
		due = append(due, id)
	}
	r.mu.Unlock()

	for _, id := range due {
		err := r.probe(id)
		r.observe(id, err, true, now)
	}
}

// probe runs one health check outside the registry lock. Chaos faults come
// first: a partition mask or injected probe error is indistinguishable from
// a genuinely unreachable peer, which is the point.
func (r *Registry) probe(id string) error {
	if err := r.cfg.Chaos.PartitionErr("cluster.partition", r.cfg.Self, id); err != nil {
		return err
	}
	if err := r.cfg.Chaos.Inject("cluster.probe", id); err != nil {
		return err
	}
	if r.cfg.Probe == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	return r.cfg.Probe(ctx, id)
}

// ReportFailure is the passive failure detector: the routing client calls
// it on hard connect errors, so a killed peer is demoted on the next
// traffic attempt instead of waiting for the probe cycle.
func (r *Registry) ReportFailure(id string, err error) {
	r.observe(id, err, false, r.cfg.Now())
}

// ReportSuccess feeds successful traffic back as liveness evidence.
func (r *Registry) ReportSuccess(id string) {
	r.observe(id, nil, false, r.cfg.Now())
}

// observe applies one health observation to the state machine.
func (r *Registry) observe(id string, err error, probe bool, now time.Time) {
	r.mu.Lock()
	n, ok := r.nodes[id]
	if !ok || n.st.Self {
		r.mu.Unlock()
		return
	}
	if probe {
		n.st.Probes++
	} else {
		n.st.Reports++
	}

	var to State
	changed := false
	rejoined := false
	if err == nil {
		if probe {
			r.probesOK.Inc()
		}
		n.st.ConsecFails = 0
		n.st.LastErr = ""
		if n.st.State != StateAlive {
			from := n.st.State
			n.st.State = StateAlive
			to, changed = StateAlive, true
			if from == StateDead {
				n.st.Rejoins++
				rejoined = true
				r.rejoins.Inc()
			} else {
				n.st.Flaps++
			}
		}
	} else {
		if probe {
			r.probesFail.Inc()
		}
		n.st.Fails++
		n.st.ConsecFails++
		n.st.LastErr = err.Error()
		switch n.st.State {
		case StateAlive:
			if n.st.ConsecFails >= r.cfg.SuspectAfter {
				n.st.State = StateSuspect
				n.suspectAt = now
				to, changed = StateSuspect, true
			}
		case StateSuspect:
			if now.Sub(n.suspectAt) >= r.cfg.DeadAfter {
				n.st.State = StateDead
				to, changed = StateDead, true
			}
		}
	}

	var epoch uint64
	ringChanged := false
	consecFails := n.st.ConsecFails
	if changed {
		r.transitions[to].Inc()
		// Ring membership only tracks deadness: alive↔suspect keeps
		// ownership stable (minimal disruption), dead↔anything rebuilds.
		if to == StateDead || rejoined {
			r.rebuildRing()
			ringChanged = true
			epoch = r.epoch
		}
	}
	r.mu.Unlock()

	if changed && r.log.Enabled(tlog.LevelInfo) {
		fields := []tlog.Field{
			tlog.F("peer", id), tlog.F("state", to.String()),
			tlog.F("consecFails", consecFails),
		}
		if ringChanged {
			fields = append(fields, tlog.F("ringEpoch", epoch))
		}
		if err != nil {
			fields = append(fields, tlog.F("err", err.Error()))
		}
		r.log.Info("peer state change", fields...)
	}
}

// rebuildRing recomputes the ring over non-dead members. Callers hold mu.
func (r *Registry) rebuildRing() {
	members := make([]string, 0, len(r.order))
	for _, id := range r.order {
		if r.nodes[id].st.State != StateDead {
			members = append(members, id)
		}
	}
	r.ring = NewRing(members, r.cfg.VNodes)
	r.epoch++
}

// Ring returns the current routing ring and its epoch. The ring is
// immutable; compare epochs to detect membership changes mid-flight.
func (r *Registry) Ring() (*Ring, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring, r.epoch
}

// Owner returns the current ring owner of a digest.
func (r *Registry) Owner(digest string) (string, bool) {
	ring, _ := r.Ring()
	return ring.Owner(digest)
}

// StateOf returns a peer's current state (dead if unknown).
func (r *Registry) StateOf(id string) State {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.nodes[id]; ok {
		return n.st.State
	}
	return StateDead
}

// Self returns this node's advertised ID.
func (r *Registry) Self() string { return r.cfg.Self }

// Snapshot returns every node's status, in stable order.
func (r *Registry) Snapshot() []NodeStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeStatus, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.nodes[id].st)
	}
	return out
}
