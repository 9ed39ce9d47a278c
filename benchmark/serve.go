package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parrot/internal/cluster"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/api"
	"parrot/internal/serve/cache"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/serve/sched"
	"parrot/internal/telemetry"
	"parrot/internal/workload"
)

// traceBuf sizes each node's request-trace ring: large enough that a
// traced phase can fetch the spans of its last spanSample requests. It is
// the same in untraced runs, so the trace overhead compares like with like.
const traceBuf = 4096

// node is one in-process parrotd, wired the way cmd/parrotd wires it.
type node struct {
	url   string
	hs    *http.Server
	done  chan struct{} // closed when Serve returns
	sched *sched.Sched
	cache *cache.Cache
	cl    *cluster.Cluster
	timer *handlerTimer
}

// cellRef is one warmed cell and the answer it must come back with.
type cellRef struct {
	model, app   string
	spec, result string // RunSpec digest, ResultDigest
}

// serveEnv is a running fleet with every cell of the matrix warmed.
type serveEnv struct {
	o        options
	nodes    []*node
	cells    []cellRef
	setupErr error // the warm matrix did not reproduce its reference
	budget   int   // last instruction budget handed to a fresh miss
}

// nproc is the load budget: one scheduler worker, load client and
// connection per CPU.
func nproc() int { return runtime.GOMAXPROCS(0) }

// setupServe starts nNodes nodes (a parrotswarm when nNodes > 1) with
// workers scheduler workers each, and warms every cell of the matrix
// through one /v1/matrix request on node 0, which places each cell on its
// ring owner. The warm matrix digest must equal the committed reference;
// its cells become the reference answers of the timed window.
func setupServe(o options, nNodes, workers int) (*serveEnv, error) {
	env := &serveEnv{o: o, budget: o.Insts}
	lns := make([]net.Listener, nNodes)
	urls := make([]string, nNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	for i, ln := range lns {
		reg := telemetry.NewRegistry()
		c, err := cache.New(cache.Config{MemBudget: 64 << 20})
		if err != nil {
			env.close()
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, err
		}
		pool := core.NewPool()
		for _, m := range config.All() {
			pool.Prewarm(m, workers)
		}
		sc := sched.New(sched.Config{Workers: workers, Cache: c, Pool: pool, Registry: reg})
		var cl *cluster.Cluster
		if nNodes > 1 {
			cl = cluster.New(cluster.Config{Advertise: urls[i], Peers: urls, Registry: reg})
		}
		srv := api.New(api.Config{Cache: c, Sched: sc, Registry: reg, TraceBuf: traceBuf, Cluster: cl})
		n := &node{url: urls[i], done: make(chan struct{}), sched: sc, cache: c, cl: cl, timer: newHandlerTimer()}
		n.hs = &http.Server{Handler: n.timer.wrap(srv.Handler())}
		go func(ln net.Listener) {
			defer close(n.done)
			_ = n.hs.Serve(ln) // returns ErrServerClosed on Shutdown
		}(ln)
		if cl != nil {
			cl.Start()
		}
		env.nodes = append(env.nodes, n)
	}

	ref, err := reference(o)
	if err != nil {
		env.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	mr, err := newClient(urls[0]).Matrix(ctx, proto.MatrixRequest{Apps: o.Apps, Insts: o.Insts}, nil)
	if err != nil {
		env.close()
		return nil, fmt.Errorf("warm matrix: %w", err)
	}
	if mr.FailedCells > 0 || mr.Digest != ref {
		env.setupErr = fmt.Errorf("warm matrix digest %.12s (%d failed cells), want %.12s", mr.Digest, mr.FailedCells, ref)
	}
	for _, c := range mr.Cells {
		if c.Result == nil {
			continue
		}
		env.cells = append(env.cells, cellRef{model: c.Model, app: c.App, spec: c.Digest, result: experiments.ResultDigest(c.Result)})
	}
	return env, nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, n := range e.nodes {
		if n.cl != nil {
			n.cl.Stop()
		}
	}
	for _, n := range e.nodes {
		_ = n.hs.Shutdown(ctx) // a timeout here leaves only idle connections behind
		<-n.done
		_ = n.sched.Drain(ctx)
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// freshBudget returns an instruction budget no earlier request of this
// process used, so the cell can only be answered by simulating it.
func (e *serveEnv) freshBudget() int {
	e.budget++
	return e.budget
}

// newClient is the load client: one attempt per request, so every refusal
// or error is counted instead of retried away.
func newClient(url string) *client.Client {
	return client.New(url, client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
}

// handlerTimer wraps a node's handler and, while on, records each
// /v1/run's handling time by request ID.
type handlerTimer struct {
	on   atomic.Bool
	mu   sync.Mutex
	byID map[string]time.Duration
}

func newHandlerTimer() *handlerTimer { return &handlerTimer{byID: map[string]time.Duration{}} }

func (h *handlerTimer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.on.Load() || r.URL.Path != "/v1/run" {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		id := w.Header().Get(api.RequestIDHeader)
		h.mu.Lock()
		h.byID[id] = d
		h.mu.Unlock()
	})
}

// take returns and clears the recorded handler times.
func (h *handlerTimer) take() map[string]time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.byID
	h.byID = map[string]time.Duration{}
	return out
}

var (
	errDegraded = errors.New("degraded stale answer")
	errMismatch = errors.New("output mismatch")
	errNotHit   = errors.New("warmed cell not served from cache")
	errUnsent   = errors.New("arrival could not be sent")
)

// checkRun is the per-response output check. A degraded answer carries a
// result for a different budget, so it fails even though it is marked.
func checkRun(resp *proto.RunResponse, err error, spec, result string) error {
	if err != nil {
		return err
	}
	if resp.Degraded {
		return fmt.Errorf("%w: %.12s answered for %.12s", errDegraded, resp.Digest, resp.RequestedDigest)
	}
	if resp.Digest != spec {
		return fmt.Errorf("%w: digest %.12s, requested %.12s", errMismatch, resp.Digest, spec)
	}
	if result != "" && resp.ResultDigest != result {
		return fmt.Errorf("%w: result %.12s, reference %.12s", errMismatch, resp.ResultDigest, result)
	}
	return nil
}

// reqRec is one request of a timed window. Offsets are from window start;
// in the closed loop a request is due and released when it is sent.
type reqRec struct {
	Due, Released, Sent, Done time.Duration
	Miss                      bool
	Err                       error
	ID                        string
	Sender                    int

	// Misses keep what the post-window re-simulation needs.
	Model, App   string
	Insts        int
	ResultDigest string
}

func (r *reqRec) latMs() float64 { return float64(r.Done-r.Released) / 1e6 }

// tally folds a window's records into the report's attempted/failed
// counts, degraded count and errors, and returns the successful records.
func tally(rep *report, recs []reqRec) []reqRec {
	var ok []reqRec
	for i := range recs {
		r := &recs[i]
		rep.Result.Attempted++
		if r.Err == nil {
			ok = append(ok, *r)
			continue
		}
		rep.Result.Failed++
		if errors.Is(r.Err, errMismatch) {
			rep.Result.Correct = false
		}
		if errors.Is(r.Err, errDegraded) {
			rep.Samples["degraded"]++
		}
		if len(rep.Errors) < 10 {
			rep.Errors = append(rep.Errors, r.Err.Error())
		}
	}
	return ok
}

// markSetup folds a failed warm-matrix check into the report.
func (e *serveEnv) markSetup(rep *report) {
	if e.setupErr != nil {
		rep.Result.Correct = false
		rep.Result.Failed += len(e.cells)
		rep.Result.Attempted += len(e.cells)
		rep.Errors = append(rep.Errors, e.setupErr.Error())
	}
}

func modelByID(id string) (config.Model, bool) {
	for _, m := range config.All() {
		if string(m.ID) == id {
			return m, true
		}
	}
	return config.Model{}, false
}

// specDigest is the content address the server must answer a request with.
func specDigest(model, app string, insts int) (string, error) {
	m, ok := modelByID(model)
	if !ok {
		return "", fmt.Errorf("unknown model %q", model)
	}
	p, ok := workload.ByName(app)
	if !ok {
		return "", fmt.Errorf("unknown app %q", app)
	}
	return experiments.RunSpec{Model: m, App: p, Insts: insts}.Normalize().Digest(), nil
}
