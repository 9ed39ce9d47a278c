package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable clock for driving Tick deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// probeScript lets a test flip a peer between healthy and failing.
type probeScript struct {
	mu      sync.Mutex
	failing map[string]bool
}

func (p *probeScript) set(node string, fail bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failing == nil {
		p.failing = map[string]bool{}
	}
	p.failing[node] = fail
}

func (p *probeScript) probe(_ context.Context, node string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failing[node] {
		return errors.New("connection refused")
	}
	return nil
}

func testRegistry(t *testing.T) (*Registry, *fakeClock, *probeScript) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	script := &probeScript{}
	r := NewRegistry(RegistryConfig{
		Self:          "http://n1",
		Peers:         []string{"http://n2", "http://n3"},
		VNodes:        16,
		ProbeInterval: time.Second,
		SuspectAfter:  2,
		DeadAfter:     5 * time.Second,
		Jitter:        0.001,
		Probe:         script.probe,
		Now:           clk.Now,
	})
	return r, clk, script
}

// step advances past the jittered probe interval and ticks once.
func step(r *Registry, clk *fakeClock) { r.Tick(clk.Advance(2 * time.Second)) }

func TestMembershipAllAliveAtBoot(t *testing.T) {
	r, _, _ := testRegistry(t)
	ring, epoch := r.Ring()
	if ring.Len() != 3 {
		t.Fatalf("boot ring has %d members, want 3", ring.Len())
	}
	if epoch != 1 {
		t.Fatalf("boot epoch = %d, want 1", epoch)
	}
	for _, st := range r.Snapshot() {
		if st.State != StateAlive {
			t.Fatalf("node %s boots %v, want alive", st.ID, st.State)
		}
	}
}

// TestMembershipFlap: alive → suspect → alive. A flap must not touch ring
// membership or the epoch — ownership stays put on a dropped probe or two.
func TestMembershipFlap(t *testing.T) {
	r, clk, script := testRegistry(t)
	_, epoch0 := r.Ring()

	script.set("http://n2", true)
	step(r, clk) // fail 1: still alive (SuspectAfter=2)
	if got := r.StateOf("http://n2"); got != StateAlive {
		t.Fatalf("after one failed probe: %v, want alive", got)
	}
	step(r, clk) // fail 2: suspect
	if got := r.StateOf("http://n2"); got != StateSuspect {
		t.Fatalf("after two failed probes: %v, want suspect", got)
	}
	if ring, epoch := r.Ring(); ring.Len() != 3 || epoch != epoch0 {
		t.Fatalf("suspect changed the ring (len %d, epoch %d→%d); suspects must stay members",
			ring.Len(), epoch0, epoch)
	}

	script.set("http://n2", false)
	step(r, clk) // recovery
	if got := r.StateOf("http://n2"); got != StateAlive {
		t.Fatalf("after recovery probe: %v, want alive", got)
	}
	if _, epoch := r.Ring(); epoch != epoch0 {
		t.Fatalf("flap bumped epoch %d→%d; alive↔suspect must not rebuild the ring", epoch0, epoch)
	}
	for _, st := range r.Snapshot() {
		if st.ID == "http://n2" {
			if st.Flaps != 1 || st.Rejoins != 0 {
				t.Fatalf("flap counters = flaps %d rejoins %d, want 1/0", st.Flaps, st.Rejoins)
			}
		}
	}
}

// TestMembershipSuspectTimeoutAndRejoin: the full lifecycle. Staying
// suspect past DeadAfter declares the peer dead (ring shrinks, epoch
// bumps); the first healthy probe afterwards rejoins it (ring grows,
// epoch bumps again, ownership restored bit-exactly).
func TestMembershipSuspectTimeoutAndRejoin(t *testing.T) {
	r, clk, script := testRegistry(t)
	bootRing, epoch0 := r.Ring()

	script.set("http://n3", true)
	step(r, clk) // fail 1
	step(r, clk) // fail 2 → suspect (suspectAt = now)
	if got := r.StateOf("http://n3"); got != StateSuspect {
		t.Fatalf("state = %v, want suspect", got)
	}
	step(r, clk) // +2s of suspicion, still < DeadAfter
	if got := r.StateOf("http://n3"); got != StateSuspect {
		t.Fatalf("state = %v, want still suspect before DeadAfter", got)
	}
	step(r, clk) // +4s
	step(r, clk) // +6s ≥ DeadAfter → dead
	if got := r.StateOf("http://n3"); got != StateDead {
		t.Fatalf("state = %v, want dead after DeadAfter of suspicion", got)
	}
	deadRing, epoch1 := r.Ring()
	if deadRing.Len() != 2 {
		t.Fatalf("dead peer still in ring (len %d)", deadRing.Len())
	}
	if epoch1 != epoch0+1 {
		t.Fatalf("death bumped epoch %d→%d, want +1", epoch0, epoch1)
	}
	for k := uint64(0); k < 256; k++ {
		if o, _ := deadRing.Owner(digestFor(k * 0x9e3779b9)); o == "http://n3" {
			t.Fatalf("dead node still owns digest %s", digestFor(k))
		}
	}

	script.set("http://n3", false)
	step(r, clk) // rejoin
	if got := r.StateOf("http://n3"); got != StateAlive {
		t.Fatalf("state = %v, want alive after rejoin probe", got)
	}
	joinRing, epoch2 := r.Ring()
	if joinRing.Len() != 3 || epoch2 != epoch1+1 {
		t.Fatalf("rejoin: ring len %d epoch %d, want 3 members and epoch %d", joinRing.Len(), epoch2, epoch1+1)
	}
	// Rejoined ring assigns exactly as the boot ring did.
	for k := uint64(0); k < 1024; k++ {
		d := digestFor(k * 0x9e3779b97f4a7c15)
		a, _ := bootRing.Owner(d)
		b, _ := joinRing.Owner(d)
		if a != b {
			t.Fatalf("ownership of %s not restored on rejoin: %s vs %s", d, a, b)
		}
	}
	for _, st := range r.Snapshot() {
		if st.ID == "http://n3" && st.Rejoins != 1 {
			t.Fatalf("rejoins = %d, want 1", st.Rejoins)
		}
	}
}

// TestMembershipPassiveReports: traffic-path ReportFailure demotes a peer
// without waiting for the probe cycle, and ReportSuccess revives it.
func TestMembershipPassiveReports(t *testing.T) {
	r, _, _ := testRegistry(t)
	err := errors.New("dial tcp: connection refused")
	r.ReportFailure("http://n2", err)
	r.ReportFailure("http://n2", err)
	if got := r.StateOf("http://n2"); got != StateSuspect {
		t.Fatalf("two failure reports: %v, want suspect", got)
	}
	r.ReportSuccess("http://n2")
	if got := r.StateOf("http://n2"); got != StateAlive {
		t.Fatalf("success report: %v, want alive", got)
	}
	for _, st := range r.Snapshot() {
		if st.ID == "http://n2" {
			if st.Reports != 3 || st.Probes != 0 {
				t.Fatalf("reports/probes = %d/%d, want 3/0", st.Reports, st.Probes)
			}
		}
	}
}

// TestMembershipSelfNeverProbed: observations about self are ignored — a
// node cannot demote itself out of its own ring. Even with every peer
// failing until it is dead, self stays alive and stays in the ring, so the
// routing client's pick always has an eligible target.
func TestMembershipSelfNeverProbed(t *testing.T) {
	r, clk, script := testRegistry(t)
	for _, n := range []string{"http://n1", "http://n2", "http://n3"} {
		script.set(n, true)
	}
	r.ReportFailure("http://n1", errors.New("nope"))
	for i := 0; i < 10; i++ {
		step(r, clk)
	}
	r.ReportFailure("http://n1", errors.New("nope"))
	if got := r.StateOf("http://n1"); got != StateAlive {
		t.Fatalf("self state = %v, want alive always", got)
	}
	for _, st := range r.Snapshot() {
		if st.ID == "http://n1" && st.Probes != 0 {
			t.Fatalf("self was probed %d times", st.Probes)
		}
	}
	for _, peer := range []string{"http://n2", "http://n3"} {
		if got := r.StateOf(peer); got != StateDead {
			t.Fatalf("%s state = %v, want dead after 10 failed probes", peer, got)
		}
	}
	ring, _ := r.Ring()
	if nodes := ring.Nodes(); len(nodes) != 1 || nodes[0] != "http://n1" {
		t.Fatalf("ring nodes = %v, want only self", nodes)
	}
}

// TestMembershipUnknownPeerIgnored: reports about nodes outside the seed
// list are dropped, and StateOf treats them as dead.
func TestMembershipUnknownPeerIgnored(t *testing.T) {
	r, _, _ := testRegistry(t)
	r.ReportFailure("http://stranger", errors.New("x"))
	r.ReportSuccess("http://stranger")
	if got := r.StateOf("http://stranger"); got != StateDead {
		t.Fatalf("unknown peer state = %v, want dead", got)
	}
	if _, epoch := r.Ring(); epoch != 1 {
		t.Fatalf("unknown peer changed epoch to %d", epoch)
	}
}

// TestMembershipConcurrentObservations hammers the registry from many
// goroutines; run with -race this pins the locking discipline.
func TestMembershipConcurrentObservations(t *testing.T) {
	r, clk, script := testRegistry(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				switch j % 4 {
				case 0:
					r.ReportFailure("http://n2", errors.New("x"))
				case 1:
					r.ReportSuccess("http://n2")
				case 2:
					ring, _ := r.Ring()
					ring.Owner(digestFor(uint64(i*1000 + j)))
				case 3:
					r.Snapshot()
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			script.set("http://n3", j%2 == 0)
			step(r, clk)
		}
	}()
	wg.Wait()
}
