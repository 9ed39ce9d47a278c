package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/workload"
)

var cannedReq = proto.RunRequest{Model: "TON", App: "gzip", Insts: 2000}

// cannedResponse builds a wire response that passes the serve client's
// result-digest verification, so fake peers can serve real payloads.
func cannedResponse(t *testing.T) *proto.RunResponse {
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

// peer serves resp until down is set; a down peer drops every connection
// without an answer, which the client sees as a transport error.
func peer(t *testing.T, resp *proto.RunResponse, down *atomic.Bool) *httptest.Server {
	t.Helper()
	s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if down != nil && down.Load() {
			panic(http.ErrAbortHandler)
		}
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(s.Close)
	return s
}

// digestOwnedBy finds a key whose ring candidates start owner, succ.
func digestOwnedBy(t *testing.T, ring *Ring, owner, succ string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		d := fmt.Sprintf("cell-%d", i)
		if c := ring.Candidates(d, 2); c[0] == owner && c[1] == succ {
			return d
		}
	}
	t.Fatalf("no key with candidates %s, %s in 4096 probes", owner, succ)
	return ""
}

// TestDeadlineSliceReleasesHungOwner: an owner that hangs past its carved
// slice of the deadline is cut off when the slice ends, its handler is
// released server-side, and the cell is then served by the ring successor
// inside the same overall deadline.
func TestDeadlineSliceReleasesHungOwner(t *testing.T) {
	resp := cannedResponse(t)
	budgetMs := make(chan string, 1)    // X-Parrot-Deadline the owner saw
	held := make(chan time.Duration, 1) // how long the owner's handler ran
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// net/http watches for a client hang-up only once the request
		// body is consumed; without this read the cut-off attempt's
		// context would never reach the handler.
		io.Copy(io.Discard, r.Body)
		t0 := time.Now()
		select {
		case budgetMs <- r.Header.Get(proto.DeadlineHeader):
		default: // only the first request is reported
		}
		select {
		case <-time.After(30 * time.Second):
		case <-r.Context().Done():
		}
		select {
		case held <- time.Since(t0):
		default:
		}
	}))
	t.Cleanup(hung.Close)
	succ := peer(t, resp, nil)

	reg := NewRegistry(RegistryConfig{
		Self:   "http://self",
		Peers:  []string{hung.URL, succ.URL},
		VNodes: 16,
	})
	c := NewClient(reg, ClientConfig{Retry: client.RetryPolicy{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond,
	}})
	ring, _ := reg.Ring()
	digest := digestOwnedBy(t, ring, hung.URL, succ.URL)

	const deadline = 600 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	out, info, err := c.RunRemote(ctx, cannedReq, digest)
	if err != nil {
		t.Fatalf("RunRemote: %v", err)
	}
	if out.Digest != resp.Digest || info.Node != succ.URL || info.Attempts != 2 || !info.Recovered {
		t.Fatalf("info = %+v, digest %.12s; want the canned cell served by the successor on attempt 2", info, out.Digest)
	}
	// Two attempts left: the owner was given half the budget, not all.
	ms, err := strconv.ParseInt(<-budgetMs, 10, 64)
	if err != nil || ms <= 0 || ms > deadline.Milliseconds()/2 {
		t.Fatalf("owner saw a %d ms budget (err %v), want its slice of at most %d ms", ms, err, deadline.Milliseconds()/2)
	}
	select {
	case d := <-held:
		if d > 5*time.Second {
			t.Fatalf("the hung owner's handler ran %v, want release at the end of its slice", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the hung owner's handler was still running 5s after the cell was served")
	}
	if reg.StateOf(hung.URL) != StateAlive {
		t.Fatal("a deadline cut-off was reported to membership as death evidence")
	}
}

// detectorFixture routes single-attempt cells whose ring candidates are
// owner, succ. Membership is the routing client's one failure detector:
// it keeps the guarantees a per-node circuit breaker gave (demote after a
// failure streak, a success resets the streak, no traffic to a demoted
// owner until one check succeeds), and the TestBreaker* tests below hold
// it to them.
type detectorFixture struct {
	t           *testing.T
	reg         *Registry
	clk         *fakeClock
	script      *probeScript
	c           *Client
	down        atomic.Bool // the owner drops every connection
	owner, succ string
	digest      string
	ring0       *Ring
	epoch0      uint64
}

func newDetectorFixture(t *testing.T) *detectorFixture {
	t.Helper()
	resp := cannedResponse(t)
	f := &detectorFixture{
		t:      t,
		clk:    &fakeClock{t: time.Unix(1_700_000_000, 0)},
		script: &probeScript{},
	}
	f.owner = peer(t, resp, &f.down).URL
	f.succ = peer(t, resp, nil).URL
	f.reg = NewRegistry(RegistryConfig{
		Self:          "http://self",
		Peers:         []string{f.owner, f.succ},
		VNodes:        16,
		ProbeInterval: time.Second,
		SuspectAfter:  2,
		DeadAfter:     5 * time.Second,
		Jitter:        0.001,
		Probe:         f.script.probe,
		Now:           f.clk.Now,
	})
	f.c = NewClient(f.reg, ClientConfig{Retry: client.RetryPolicy{MaxAttempts: 1}})
	f.ring0, f.epoch0 = f.reg.Ring()
	f.digest = digestOwnedBy(t, f.ring0, f.owner, f.succ)
	return f
}

// run routes one cell and checks who served it ("" = the attempt must
// fail).
func (f *detectorFixture) run(step, want string) {
	f.t.Helper()
	_, info, err := f.c.RunRemote(context.Background(), cannedReq, f.digest)
	switch {
	case want == "" && err == nil:
		f.t.Fatalf("%s: served by %s, want a transport failure", step, info.Node)
	case want != "" && err != nil:
		f.t.Fatalf("%s: %v, want served by %s", step, err, want)
	case want != "" && info.Node != want:
		f.t.Fatalf("%s: served by %s, want %s", step, info.Node, want)
	}
}

func (f *detectorFixture) wantState(step string, want State) {
	f.t.Helper()
	if st := f.reg.StateOf(f.owner); st != want {
		f.t.Fatalf("%s: owner is %v, want %v", step, st, want)
	}
}

// wantPick checks where attempt 0 of the cell goes.
func (f *detectorFixture) wantPick(step, want string) {
	f.t.Helper()
	if got := f.c.pick(f.ring0, f.digest, 0); got != want {
		f.t.Fatalf("%s: attempt 0 picks %s, want %s", step, got, want)
	}
}

// demote makes the owner suspect through two transport failures in a row.
func (f *detectorFixture) demote() {
	f.t.Helper()
	f.down.Store(true)
	f.run("first failure", "")
	f.run("second failure", "")
	f.wantState("two failures in a row", StateSuspect)
}

// probe ticks membership once with the owner's probe failing or not.
func (f *detectorFixture) probe(fail bool) {
	f.script.set(f.owner, fail)
	step(f.reg, f.clk)
}

// wantRingUnchanged: a suspect episode never moves ownership or the epoch.
func (f *detectorFixture) wantRingUnchanged() {
	f.t.Helper()
	ring1, epoch1 := f.reg.Ring()
	if epoch1 != f.epoch0 {
		f.t.Fatalf("ring epoch %d -> %d across a suspect episode, want unchanged", f.epoch0, epoch1)
	}
	for i := 0; i < 4096; i++ {
		d := fmt.Sprintf("key-%d", i)
		o0, _ := f.ring0.Owner(d)
		o1, _ := ring1.Owner(d)
		if o0 != o1 {
			f.t.Fatalf("owner of %s moved %s -> %s across a suspect episode", d, o0, o1)
		}
	}
}

// TestBreakerOpensAtThreshold: one transport failure leaves the owner
// alive and still routed to; the second in a row makes it suspect, and
// attempt 0 then goes to the ring successor.
func TestBreakerOpensAtThreshold(t *testing.T) {
	f := newDetectorFixture(t)
	f.down.Store(true)
	f.run("first failure", "")
	f.wantState("one failure", StateAlive)
	f.wantPick("one failure", f.owner)
	f.run("second failure", "")
	f.wantState("two failures in a row", StateSuspect)
	f.wantPick("owner suspect", f.succ)
	f.run("suspect owner", f.succ)
	f.wantRingUnchanged()
}

// TestBreakerSuccessResetsFailureCount: a success between two failures
// breaks the streak, so the owner stays alive and keeps its traffic.
func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	f := newDetectorFixture(t)
	f.down.Store(true)
	f.run("first failure", "")
	f.down.Store(false)
	f.run("success after one failure", f.owner)
	f.down.Store(true)
	f.run("failure after the success", "")
	f.wantState("failure, success, failure", StateAlive)
	f.wantPick("streak broken", f.owner)
}

// TestBreakerHalfOpenSingleTrial: a suspect owner gets no traffic at all;
// the one check that may restore it is a membership probe, and a
// successful probe gives it its cells back with ownership untouched.
func TestBreakerHalfOpenSingleTrial(t *testing.T) {
	f := newDetectorFixture(t)
	f.demote()
	// The owner is healthy again, but traffic does not find that out:
	// every cell still goes to the successor until a probe says so.
	f.down.Store(false)
	for i := 0; i < 3; i++ {
		f.run("suspect owner, healthy again", f.succ)
	}
	f.wantState("traffic routed around the owner", StateSuspect)
	f.probe(false)
	f.wantState("successful probe", StateAlive)
	f.run("restored owner", f.owner)
	f.wantRingUnchanged()
}

// TestBreakerFailedTrialReopens: a failed probe keeps the owner suspect
// and routed around; a later successful probe still restores it.
func TestBreakerFailedTrialReopens(t *testing.T) {
	f := newDetectorFixture(t)
	f.demote()
	f.probe(true)
	f.wantState("failed probe", StateSuspect)
	f.run("still suspect", f.succ)
	f.down.Store(false)
	f.probe(false)
	f.wantState("successful probe after a failed one", StateAlive)
	f.run("restored owner", f.owner)
	f.wantRingUnchanged()
}
