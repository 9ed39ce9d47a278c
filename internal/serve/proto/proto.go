// Package proto defines the wire types of the parrotd serving API — the
// JSON request/response bodies of /v1/run, /v1/matrix (and its SSE progress
// events), /v1/results/{digest}, /healthz and /metricsz. The daemon, the
// client library and every CLI (parrotctl, parrotload, parrotsim -remote,
// parrotbench -remote) share these structs, so the wire format has exactly
// one definition.
package proto

import (
	"math"
	"time"

	"parrot/internal/core"
)

// Priority names of RunRequest.Priority.
const (
	PriorityInteractive = "interactive" // default: single-cell, latency-sensitive
	PriorityBatch       = "batch"       // matrix fan-out, throughput-oriented
)

// Overload-resilience headers shared by the api middleware, the client
// library and the cluster forwarding path.
const (
	// DeadlineHeader carries the request's remaining deadline budget in
	// whole milliseconds. A relative budget (not an absolute timestamp)
	// survives clock skew between hops; each hop re-stamps the remaining
	// budget from its own ctx deadline before forwarding.
	DeadlineHeader = "X-Parrot-Deadline"
	// RetryAfterMsHeader is the millisecond-precision companion of the
	// standard Retry-After header on 429 shed responses.
	RetryAfterMsHeader = "X-Parrot-Retry-After-Ms"
)

// Duration converts n units read off the wire (a header or a JSON field)
// to a time.Duration, saturating at the Duration range instead of
// wrapping. A wrapped budget would flip sign; a saturated one is ~292
// years, which every caller treats as unbounded.
func Duration(n int64, unit time.Duration) time.Duration {
	switch {
	case n > math.MaxInt64/int64(unit):
		return math.MaxInt64
	case n < math.MinInt64/int64(unit):
		return math.MinInt64
	}
	return time.Duration(n) * unit
}

// RunRequest asks for one simulation cell. Model and App are resolved
// server-side against the paper's model set and benchmark roster; the
// server canonicalizes the pair plus Insts into a RunSpec and serves the
// cell from cache when its digest is already resident.
type RunRequest struct {
	Model string `json:"model"`
	App   string `json:"app"`
	// Insts is the dynamic instruction budget (0 = profile default).
	Insts int `json:"insts,omitempty"`
	// Priority selects the scheduler queue ("interactive" default, "batch").
	Priority string `json:"priority,omitempty"`
	// TimeoutMs bounds the end-to-end wait (0 = server default).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// RunResponse returns one simulation cell.
type RunResponse struct {
	// Digest is the content address of the cell (RunSpec digest).
	Digest string `json:"digest"`
	// Cached reports whether the cell was served from the result cache
	// without touching the worker fleet.
	Cached bool `json:"cached"`
	// Disposition refines Cached: how the cell was obtained — "hit" (result
	// cache), "dedup" (joined an in-flight identical spec), "exact" (full
	// simulation).
	Disposition string `json:"disposition,omitempty"`
	// RequestID is the server-assigned (or client-propagated
	// X-Parrot-Request-Id) correlation ID; feed it to /v1/trace/{id} for the
	// request's span timeline.
	RequestID string `json:"requestId,omitempty"`
	// ResultDigest is the canonical digest of Result, letting clients verify
	// transport integrity end-to-end.
	ResultDigest string `json:"resultDigest"`
	// ElapsedUs is the server-side handling time in microseconds.
	ElapsedUs int64        `json:"elapsedUs"`
	Result    *core.Result `json:"result"`
	// Node is the advertised URL of the cluster node that actually served
	// the cell (empty on single-node daemons).
	Node string `json:"node,omitempty"`
	// Attempts counts transport attempts the client layer needed (1 = first
	// try; populated client-side by the retrying client, not the server).
	Attempts int `json:"attempts,omitempty"`
	// Degraded and RequestedDigest are never set by parrotd: a shed
	// answers 429 and a missed deadline 504, never a result for another
	// instruction budget. The fields stay for clients that still check
	// them, and a coordinator refuses to keep a peer answer with Degraded
	// set.
	Degraded        bool   `json:"degraded,omitempty"`
	RequestedDigest string `json:"requestedDigest,omitempty"`
}

// MatrixRequest asks for a model × application fan-out. Empty slices mean
// the full set (all seven models / the 44-application roster).
type MatrixRequest struct {
	Models []string `json:"models,omitempty"`
	Apps   []string `json:"apps,omitempty"`
	Insts  int      `json:"insts,omitempty"`
	// TimeoutMs bounds the whole matrix (0 = server default).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// Progress is the SSE "progress" event payload of /v1/matrix: one event per
// completed cell, done strictly increasing 1..total (mirroring the
// experiments.Config.Progress contract).
type Progress struct {
	Done      int   `json:"done"`
	Total     int   `json:"total"`
	ElapsedUs int64 `json:"elapsedUs"`
	EtaUs     int64 `json:"etaUs"`
	// Cached reports whether the just-completed cell came from cache.
	Cached bool `json:"cached"`
	// Disposition refines Cached ("hit", "dedup", "exact").
	Disposition string `json:"disposition,omitempty"`
	// Failed counts cells (cumulative) that ended in a per-cell error
	// instead of a result.
	Failed int `json:"failed,omitempty"`
}

// Cell is one (model, application) result of a matrix response.
type Cell struct {
	Model  string `json:"model"`
	App    string `json:"app"`
	Digest string `json:"digest"` // RunSpec digest (content address)
	Cached bool   `json:"cached"`
	// Disposition refines Cached ("hit", "dedup", "exact").
	Disposition string       `json:"disposition,omitempty"`
	Result      *core.Result `json:"result"`
	// Node is the cluster node that served the cell (empty when the
	// coordinator ran it in-process on a single-node daemon).
	Node string `json:"node,omitempty"`
	// Error is set (and Result nil) when the cell failed — shed, deadline
	// exceeded, or simulation error. The matrix completes with explicit
	// per-cell failures instead of aborting the whole fan-out.
	Error string `json:"error,omitempty"`
}

// MatrixResponse is the SSE "result" event payload of /v1/matrix: the full
// cell set plus the matrix-level digest computed server-side with the same
// canonical hashing as an in-process experiments.Run.
type MatrixResponse struct {
	// Digest is the matrix-level golden digest (experiments.Results.Digest).
	Digest  string  `json:"digest"`
	PMax    float64 `json:"pMax"`
	PMaxApp string  `json:"pMaxApp"`
	Insts   int     `json:"instsPerApp"`
	// CachedCells counts cells served from cache; TotalCells is the fan-out
	// size — CachedCells/TotalCells is the warm-matrix hit rate the CI smoke
	// test asserts on.
	CachedCells int   `json:"cachedCells"`
	TotalCells  int   `json:"totalCells"`
	ElapsedUs   int64 `json:"elapsedUs"`
	// FailedCells counts cells that carry a per-cell Error instead of a
	// result. When non-zero the matrix is partial: Digest and PMax are
	// empty/zero because the canonical matrix hash covers all cells.
	FailedCells int `json:"failedCells,omitempty"`
	// RequestID correlates the matrix with its /v1/trace/{id} timeline.
	RequestID string `json:"requestId,omitempty"`
	Cells     []Cell `json:"cells"`
}

// Error is the JSON error body of non-2xx responses.
type Error struct {
	Error string `json:"error"`
	// RetryAfterMs is the server's back-off hint on 429 shed responses
	// (also carried in the Retry-After / X-Parrot-Retry-After-Ms headers).
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	OK         bool   `json:"ok"`
	Draining   bool   `json:"draining"`
	UptimeMs   int64  `json:"uptimeMs"`
	SimVersion int    `json:"simVersion"`
	GoVersion  string `json:"goVersion"`
}

// Ready is the /readyz body. Liveness (/healthz) says "the process is up";
// readiness says "route traffic here" — false while the pool prewarm is
// still running and during SIGTERM drain, when the body rides on HTTP 503.
type Ready struct {
	Ready bool `json:"ready"`
	// Reason explains a false Ready ("draining", "prewarming").
	Reason string `json:"reason,omitempty"`
}

// ClusterNode is one peer's membership record in the /clusterz body.
type ClusterNode struct {
	ID   string `json:"id"`
	Self bool   `json:"self,omitempty"`
	// State is "alive", "suspect" or "dead".
	State string `json:"state"`
	// InRing reports ring membership (non-dead nodes only).
	InRing      bool   `json:"inRing"`
	ConsecFails int    `json:"consecFails,omitempty"`
	Probes      uint64 `json:"probes"`
	Fails       uint64 `json:"fails"`
	Reports     uint64 `json:"reports"`
	Flaps       uint64 `json:"flaps"`
	Rejoins     uint64 `json:"rejoins"`
	LastErr     string `json:"lastErr,omitempty"`
}

// ClusterStatus is the /clusterz body: the responding node's view of the
// membership set and routing ring. The ring is a pure function of
// (Members, VNodes), so clients can rebuild it locally to verify
// ownership placement.
type ClusterStatus struct {
	Self   string `json:"self"`
	Epoch  uint64 `json:"epoch"`
	VNodes int    `json:"vnodes"`
	// Members is the current ring membership (non-dead), sorted.
	Members []string      `json:"members"`
	Nodes   []ClusterNode `json:"nodes"`
}
