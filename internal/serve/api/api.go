// Package api implements parrotd's HTTP surface (stdlib net/http only):
//
//	POST /v1/run              one simulation cell (JSON in/out)
//	POST /v1/matrix           model × application fan-out with SSE progress
//	GET  /v1/results/{digest} cache-only lookup by content address
//	GET  /v1/trace/{id}       request span timeline (Chrome trace-event JSON)
//	GET  /healthz             liveness + drain state
//	GET  /readyz              routing readiness (prewarm, drain)
//	GET  /clusterz            membership and ring view
//	GET  /metricsz            Prometheus text exposition, the only stats encoding
//	GET  /debug/pprof/…       runtime profiles (behind Config.EnablePprof)
//
// The server is a thin adapter: request bodies resolve to canonical
// experiments.RunSpecs, the scheduler executes (or the cache serves) them,
// and responses carry complete core.Result cells plus their content
// addresses, so clients can verify transport integrity end-to-end.
//
// Every request is minted (or propagated, via X-Parrot-Request-Id) a
// request ID that rides the context as a telemetry.Trace and a structured
// logger: the scheduler, cache and worker fleet add spans to it, and the
// finished timeline is retrievable from /v1/trace/{id} while it stays in
// the ring buffer.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"time"

	"parrot/internal/cluster"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/cache"
	"parrot/internal/serve/proto"
	"parrot/internal/serve/sched"
	"parrot/internal/telemetry"
	"parrot/internal/workload"
)

// RequestIDHeader carries (and returns) the request correlation ID.
const RequestIDHeader = "X-Parrot-Request-Id"

// Config parameterizes a server.
type Config struct {
	Cache *cache.Cache
	Sched *sched.Sched
	// DefaultTimeout bounds requests that carry no TimeoutMs (0 = 120s).
	DefaultTimeout time.Duration
	// MaxMatrixTimeout bounds matrix requests (0 = 10min).
	MaxMatrixTimeout time.Duration
	// Registry backs /metricsz (nil = a private one; pass the same
	// registry to sched.New so its series appear too).
	Registry *telemetry.Registry
	// Log receives structured request logs (nil = silent).
	Log *slog.Logger
	// TraceBuf bounds the request-trace ring buffer (<=0 = 256 traces).
	TraceBuf int
	// EnablePprof exposes net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Cluster enables multi-node routing: /v1/run forwards non-owned
	// digests to their ring owner, /v1/matrix scatters cells across the
	// ring, and /clusterz exposes membership (nil = single-node).
	Cluster *cluster.Cluster
	// NodeID is this node's advertised URL, stamped into responses so
	// clients can see which node served a cell (defaults to
	// Cluster.Self(); empty on single-node daemons).
	NodeID string
}

// Server wires the serving subsystem behind an http.Handler.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	start  time.Time
	reg    *telemetry.Registry
	log    *slog.Logger // nil = silent
	traces *telemetry.TraceStore

	reqTotal func(route, code string) *telemetry.Counter
	reqSecs  func(route string) *telemetry.Histogram
	cellReqs func(disp string) *telemetry.Counter
	cellSecs func(disp string) *telemetry.Histogram

	deadlineReqs   *telemetry.Counter
	deadlineBudget *telemetry.Histogram
}

// New builds a server over a scheduler (required) and its cache (may be
// nil: every request then simulates).
func New(cfg Config) *Server {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 120 * time.Second
	}
	if cfg.MaxMatrixTimeout <= 0 {
		cfg.MaxMatrixTimeout = 10 * time.Minute
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.NodeID == "" && cfg.Cluster != nil {
		cfg.NodeID = cfg.Cluster.Self()
	}
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		start:  time.Now(),
		reg:    cfg.Registry,
		traces: telemetry.NewTraceStore(cfg.TraceBuf),
	}
	if cfg.Log != nil {
		s.log = cfg.Log.With("component", "api")
	}

	// HTTP-level instruments. The closures mint label variants lazily; the
	// registry dedups, so hot paths pay one map lookup under a short lock.
	reqBounds := telemetry.DefBuckets()
	s.reqTotal = func(route, code string) *telemetry.Counter {
		return s.reg.Counter("parrot_requests_total",
			"HTTP requests by route and status code.", "route", route, "code", code)
	}
	s.reqSecs = func(route string) *telemetry.Histogram {
		return s.reg.Histogram("parrot_request_seconds",
			"HTTP request handling time by route.", reqBounds, "route", route)
	}
	s.cellReqs = func(disp string) *telemetry.Counter {
		return s.reg.Counter("parrot_cell_requests_total",
			"Simulation cells served, by disposition (hit/dedup/exact).",
			"disposition", disp)
	}
	s.cellSecs = func(disp string) *telemetry.Histogram {
		return s.reg.Histogram("parrot_cell_seconds",
			"Per-cell serving latency by disposition.", reqBounds, "disposition", disp)
	}
	s.deadlineReqs = s.reg.Counter("parrot_deadline_requests_total",
		"Requests that arrived carrying an X-Parrot-Deadline budget header.")
	s.deadlineBudget = s.reg.Histogram("parrot_deadline_budget_seconds",
		"Remaining deadline budget carried by X-Parrot-Deadline.", reqBounds)

	// Scrape-time collectors over single snapshots: cache, pool, process.
	cfg.Cache.Register(s.reg)
	pool := cfg.Sched.Pool()
	s.reg.RegisterCollector(func(emit telemetry.Emit) {
		ps := pool.Stats()
		emit("parrot_pool_gets_total", "counter", "Machine checkouts.", float64(ps.Gets))
		emit("parrot_pool_reuses_total", "counter", "Checkouts served by a pooled machine.", float64(ps.Reuses))
		emit("parrot_pool_puts_total", "counter", "Machines returned.", float64(ps.Puts))
		emit("parrot_pool_discards_total", "counter", "Machines dropped at the pool cap.", float64(ps.Discards))
		emit("parrot_pool_size", "gauge", "Machines resident in the pool.", float64(pool.Size()))
	})
	s.reg.RegisterCollector(func(emit telemetry.Emit) {
		emit("parrot_uptime_seconds", "gauge", "Daemon uptime.", time.Since(s.start).Seconds())
		emit("parrot_goroutines", "gauge", "Live goroutines.", float64(runtime.NumGoroutine()))
		emit("parrot_traces_buffered", "gauge", "Request traces resident in the ring buffer.", float64(s.traces.Len()))
	})

	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/matrix", s.handleMatrix)
	s.mux.HandleFunc("GET /v1/results/{digest}", s.handleResult)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /clusterz", s.handleClusterz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the routable HTTP surface, wrapped in the telemetry
// middleware (request IDs, traces, logs, request metrics).
func (s *Server) Handler() http.Handler { return s.middleware(s.mux) }

// routeLabel buckets a path into its metric label — a closed set, so
// arbitrary request paths cannot mint unbounded label values.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/run":
		return "run"
	case p == "/v1/matrix":
		return "matrix"
	case strings.HasPrefix(p, "/v1/results/"):
		return "result"
	case strings.HasPrefix(p, "/v1/trace/"):
		return "trace"
	case p == "/healthz":
		return "healthz"
	case p == "/readyz":
		return "readyz"
	case p == "/clusterz":
		return "clusterz"
	case p == "/metricsz":
		return "metricsz"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "pprof"
	default:
		return "other"
	}
}

// statusWriter captures the response code while preserving http.Flusher —
// the matrix SSE stream flushes through it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer (SSE requires it).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware mints/propagates the request ID, opens the root span, binds
// the request-scoped logger, and records route metrics on completion.
// Scrape and debug routes skip tracing: a metrics poller must not churn
// the trace ring buffer that holds real request timelines.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}

		traced := route != "metricsz" && route != "healthz" &&
			route != "readyz" && route != "clusterz" && route != "pprof"
		reqID := r.Header.Get(RequestIDHeader)
		if reqID == "" {
			reqID = telemetry.NewRequestID()
		}
		sw.Header().Set(RequestIDHeader, reqID)

		ctx := r.Context()
		// Deadline propagation: X-Parrot-Deadline carries the caller's
		// remaining budget in whole milliseconds (a relative budget survives
		// clock skew between hops). It becomes this request's ctx deadline,
		// so the scheduler's feasibility check, queue eviction and any
		// cluster fan-out all run against the caller's clock. A zero or
		// negative budget means the caller's deadline already lapsed: the
		// ctx expires immediately and the handler answers 504.
		if route == "run" || route == "matrix" || route == "result" {
			if v := r.Header.Get(proto.DeadlineHeader); v != "" {
				if ms, err := strconv.ParseInt(v, 10, 64); err == nil {
					if ms < 1 {
						ms = 1
					}
					budget := proto.Duration(ms, time.Millisecond)
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, budget)
					defer cancel()
					s.deadlineReqs.Inc()
					s.deadlineBudget.Observe(budget.Seconds())
				}
			}
		}
		var rlog *slog.Logger
		if s.log != nil {
			rlog = s.log.With("reqID", reqID, "route", route)
			ctx = telemetry.WithLogger(ctx, rlog)
		}
		var tr *telemetry.Trace
		if traced {
			tr = telemetry.NewTrace(reqID)
			s.traces.Put(tr)
			ctx = telemetry.WithTrace(ctx, tr)
			// Anchor the root span at the trace origin so every child span
			// sits at a non-negative offset inside it.
			start = tr.Start()
		}

		next.ServeHTTP(sw, r.WithContext(ctx))

		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		elapsed := time.Since(start)
		tr.AddSpan("http.request", telemetry.TIDRequest, start, start.Add(elapsed),
			telemetry.A("route", route),
			telemetry.A("method", r.Method),
			telemetry.A("code", fmt.Sprintf("%d", sw.code)))
		code := fmt.Sprintf("%d", sw.code)
		s.reqTotal(route, code).Inc()
		s.reqSecs(route).Observe(elapsed.Seconds())
		if traced && rlog != nil {
			lv, msg := slog.LevelInfo, "request served"
			if sw.code >= 500 {
				lv, msg = slog.LevelError, "request failed"
			}
			rlog.LogAttrs(ctx, lv, msg,
				slog.Int("status", sw.code), slog.Int64("us", elapsed.Microseconds()))
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, proto.Error{Error: fmt.Sprintf(format, args...)})
}

// resolveSpec canonicalizes a (model, app, insts) triple.
func resolveSpec(modelID, appName string, insts int) (experiments.RunSpec, error) {
	var model config.Model
	found := false
	for _, m := range config.All() {
		if string(m.ID) == modelID {
			model, found = m, true
			break
		}
	}
	if !found {
		return experiments.RunSpec{}, fmt.Errorf("unknown model %q", modelID)
	}
	prof, ok := workload.ByName(appName)
	if !ok {
		return experiments.RunSpec{}, fmt.Errorf("unknown application %q", appName)
	}
	return experiments.RunSpec{Model: model, App: prof, Insts: insts}.Normalize(), nil
}

// schedErrStatus maps scheduler errors onto HTTP statuses.
func schedErrStatus(err error) int {
	switch {
	case errors.Is(err, sched.ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, sched.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, sched.ErrDeadlineUnmeetable),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeShed surfaces an admission rejection as 429 plus back-off hints in
// every convention a client might honor: the standard Retry-After header
// (whole seconds, rounded up, min 1), the millisecond-precision
// X-Parrot-Retry-After-Ms companion, and the JSON error body.
func writeShed(w http.ResponseWriter, shed *sched.ShedError) {
	secs := int64((shed.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set(proto.RetryAfterMsHeader, strconv.FormatInt(shed.RetryAfter.Milliseconds(), 10))
	writeJSON(w, http.StatusTooManyRequests, proto.Error{
		Error:        shed.Error(),
		RetryAfterMs: shed.RetryAfter.Milliseconds(),
	})
}

// writeRunError surfaces a Submit failure on /v1/run: a shed answers 429
// with Retry-After hints, everything else maps through schedErrStatus (a
// missed deadline is a 504). The answer is never another cell's result.
func writeRunError(w http.ResponseWriter, err error) {
	var shed *sched.ShedError
	if errors.As(err, &shed) {
		writeShed(w, shed)
		return
	}
	writeErr(w, schedErrStatus(err), "%v", err)
}

// writeHit answers /v1/run with a cell served from this node's cache.
func (s *Server) writeHit(ctx context.Context, w http.ResponseWriter, digest, resDigest string, res *core.Result, start time.Time) {
	disp := sched.DispCacheHit.String()
	elapsed := time.Since(start)
	s.cellReqs(disp).Inc()
	s.cellSecs(disp).Observe(elapsed.Seconds())
	writeJSON(w, http.StatusOK, proto.RunResponse{
		Digest:       digest,
		Cached:       true,
		Disposition:  disp,
		RequestID:    telemetry.TraceFrom(ctx).ID(),
		ResultDigest: resDigest,
		ElapsedUs:    elapsed.Microseconds(),
		Result:       res,
		Node:         s.cfg.NodeID,
	})
}

// serveReplica answers a request for a peer-owned cell from this node's
// memory, skipping the forward hop. Reports whether it wrote a response.
func (s *Server) serveReplica(ctx context.Context, w http.ResponseWriter, digest string) bool {
	if s.cfg.Cache == nil {
		return false
	}
	start := time.Now()
	res, resDigest, ok := s.cfg.Cache.GetMem(ctx, digest)
	if !ok {
		return false
	}
	s.cfg.Cluster.NoteReplica()
	s.writeHit(ctx, w, digest, resDigest, res, start)
	return true
}

// keepReplica stores a forwarded answer as a replica when it is exactly
// the requested cell: not marked Degraded (parrotd never sets it, but a
// peer is outside this process), stored under the requested digest, and
// carrying a ResultDigest that the routing client (serve/client.Run)
// verified against the result on receipt.
func (s *Server) keepReplica(digest string, resp *proto.RunResponse) {
	if s.cfg.Cache == nil || resp.Degraded || resp.Digest != digest ||
		resp.ResultDigest == "" || resp.Result == nil {
		return
	}
	s.cfg.Cache.PutReplica(digest, resp.ResultDigest, resp.Result)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req proto.RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	spec, err := resolveSpec(req.Model, req.App, req.Insts)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = proto.Duration(int64(req.TimeoutMs), time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Cluster routing. The hop guard wins over ownership: a request a peer
	// already forwarded is served here no matter what the local ring says,
	// so transient membership disagreement cannot produce a forwarding
	// loop. Otherwise, a digest owned elsewhere is first looked up in this
	// node's memory, where an earlier forward may have left a replica; on
	// a miss it is proxied to its owner and the answer kept as a replica.
	// If every remote route fails, this node rescues it locally.
	digest := spec.Digest()
	rescued := false
	if cl := s.cfg.Cluster; cl != nil {
		if from := r.Header.Get(cluster.ForwardedHeader); from != "" {
			cl.NoteHopStop()
		} else if owner, self := cl.Owner(digest); !self {
			if s.serveReplica(ctx, w, digest) {
				return
			}
			tr := telemetry.TraceFrom(ctx)
			sp := tr.StartSpanTID(telemetry.TIDCluster, "cluster.forward",
				telemetry.A("owner", owner))
			resp, info, ferr := cl.Execute(ctx, req, digest)
			if ferr == nil {
				sp.SetAttr("node", resp.Node)
				sp.End()
				cl.NoteForward(true)
				s.keepReplica(digest, resp)
				// Re-stamp the coordinator's correlation ID; the owner's own
				// trace is reachable on the owning node.
				resp.RequestID = tr.ID()
				resp.Attempts = info.Attempts
				writeJSON(w, http.StatusOK, *resp)
				return
			}
			sp.SetAttr("err", ferr.Error())
			sp.End()
			if !errors.Is(ferr, cluster.ErrRouteLocal) {
				cl.NoteForward(false)
				rescued = true
				if l := telemetry.LoggerFrom(ctx); l != nil {
					l.Warn("forward failed, rescuing locally",
						"digest", digest[:12], "err", ferr.Error())
				}
			}
			if s.cfg.Cache != nil {
				// The replica lookup above was this request's cache probe.
				ctx = sched.WithCacheProbed(ctx)
			}
		} else {
			cl.NoteLocal()
		}
	}

	start := time.Now()
	var (
		res  *core.Result
		disp sched.Disposition
	)
	if req.Priority == proto.PriorityBatch {
		res, disp, err = s.cfg.Sched.SubmitBatch(ctx, spec)
	} else {
		res, disp, err = s.cfg.Sched.Submit(ctx, spec)
	}
	if err != nil {
		writeRunError(w, err)
		return
	}
	if rescued {
		s.cfg.Cluster.NoteRescued()
	}
	elapsed := time.Since(start)
	s.cellReqs(disp.String()).Inc()
	s.cellSecs(disp.String()).Observe(elapsed.Seconds())
	writeJSON(w, http.StatusOK, proto.RunResponse{
		Digest:       digest,
		Cached:       disp.Cached(),
		Disposition:  disp.String(),
		RequestID:    telemetry.TraceFrom(ctx).ID(),
		ResultDigest: experiments.ResultDigest(res),
		ElapsedUs:    elapsed.Microseconds(),
		Result:       res,
		Node:         s.cfg.NodeID,
	})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if s.cfg.Cache == nil {
		writeErr(w, http.StatusNotFound, "no result cache configured")
		return
	}
	res, ok := s.cfg.Cache.GetCtx(r.Context(), digest)
	if !ok {
		writeErr(w, http.StatusNotFound, "no result under digest %.12s…", digest)
		return
	}
	writeJSON(w, http.StatusOK, proto.RunResponse{
		Digest:       digest,
		Cached:       true,
		Disposition:  sched.DispCacheHit.String(),
		RequestID:    telemetry.TraceFrom(r.Context()).ID(),
		ResultDigest: experiments.ResultDigest(res),
		Result:       res,
	})
}

// handleTrace serves a buffered request timeline. Default rendering is
// Chrome trace-event JSON (load in chrome://tracing or Perfetto);
// ?format=spans returns the raw span records.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.traces.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no trace under request ID %q (ring buffer keeps the last %d)", id, s.traces.Cap())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if r.URL.Query().Get("format") == "spans" {
		_ = tr.WriteSpansJSON(w)
		return
	}
	_ = tr.WriteChromeTrace(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, proto.Health{
		OK:         true,
		Draining:   s.cfg.Sched.Draining(),
		UptimeMs:   time.Since(s.start).Milliseconds(),
		SimVersion: experiments.SimVersion,
		GoVersion:  runtime.Version(),
	})
}

// handleReadyz is the routing gate, distinct from /healthz liveness: 503
// while the pool prewarm is still running and during SIGTERM drain.
// Cluster heartbeats probe this endpoint, so a not-ready node keeps
// answering /healthz (alive, don't restart it) while peers stop routing
// cells to it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Sched.Ready() {
		writeJSON(w, http.StatusOK, proto.Ready{Ready: true})
		return
	}
	reason := "prewarming"
	if s.cfg.Sched.Draining() {
		reason = "draining"
	}
	writeJSON(w, http.StatusServiceUnavailable, proto.Ready{Ready: false, Reason: reason})
}

// handleClusterz exposes this node's membership view. Single-node daemons
// answer with a one-member ring so tooling works uniformly.
func (s *Server) handleClusterz(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cluster == nil {
		writeJSON(w, http.StatusOK, proto.ClusterStatus{
			Self:    s.cfg.NodeID,
			Members: []string{},
			Nodes:   []proto.ClusterNode{},
		})
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Cluster.Status())
}

// handleMetricsz renders the registry in Prometheus text exposition format
// (0.0.4).
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}
