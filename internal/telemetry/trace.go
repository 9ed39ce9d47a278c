package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// ---------------------------------------------------------------------------
// Request-scoped tracing
// ---------------------------------------------------------------------------
//
// A Trace is minted per HTTP request at the parrotd boundary (or adopted
// from X-Parrot-Request-Id) and flows via context.Context through the
// scheduler, the result cache and the worker that runs the simulation.
// Every layer appends completed spans; the api layer deposits finished
// traces into a ring-buffered TraceStore, exportable as Chrome
// trace-event JSON from GET /v1/trace/{requestID}.
//
// All of it is nil-safe: StartSpan on a nil *Trace returns a nil
// *ActiveSpan whose methods no-op, so library code traces unconditionally
// and pays one nil check when tracing is off.

// Display rows (Chrome trace "tid") for the goroutine roles of one
// request. Requester, worker and cluster spans interleave in time but
// never nest across rows, so the viewer shows them as separate lanes.
const (
	TIDRequest = 1 // HTTP handler / submitting goroutine
	TIDWorker  = 2 // scheduler worker executing the simulation
	TIDCluster = 3 // cluster routing: forwards, remote cells, rescues
)

// Attr is one span attribute.
type Attr struct {
	K, V string
}

// A builds an attribute.
func A(k, v string) Attr { return Attr{k, v} }

// Span is one completed, immutable span record.
type Span struct {
	Name    string            `json:"name"`
	TID     int               `json:"tid"`
	StartUs int64             `json:"startUs"` // µs since trace start
	DurUs   int64             `json:"durUs"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// End returns the span's end offset in µs since trace start.
func (s Span) End() int64 { return s.StartUs + s.DurUs }

// maxSpans bounds one trace's span count: a 44×7 matrix request emits a
// handful of spans per cell, which fits; a runaway loop cannot grow a
// trace without bound. Drops are counted and surfaced in the export.
const maxSpans = 8192

// Trace collects the spans of one request. Safe for concurrent use —
// requester and worker goroutines append to the same trace.
type Trace struct {
	id    string
	start time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewTrace starts an empty trace under the given request ID.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the request ID (empty for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns the trace start time.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// ActiveSpan is an open span; End completes and records it.
type ActiveSpan struct {
	t     *Trace
	name  string
	tid   int
	start time.Time
	attrs []Attr
}

// StartSpan opens a span on the requester row.
func (t *Trace) StartSpan(name string, attrs ...Attr) *ActiveSpan {
	return t.StartSpanTID(TIDRequest, name, attrs...)
}

// StartSpanTID opens a span on an explicit display row.
func (t *Trace) StartSpanTID(tid int, name string, attrs ...Attr) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, name: name, tid: tid, start: time.Now(), attrs: attrs}
}

// SetAttr attaches an attribute to an open span.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{k, v})
}

// End completes the span and records it on the trace.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.t.AddSpan(s.name, s.tid, s.start, time.Now(), s.attrs...)
}

// AddSpan records a completed span with explicit timestamps — the form
// the scheduler uses for spans whose start (enqueue) and end (pop) are
// observed on different goroutines.
func (t *Trace) AddSpan(name string, tid int, start, end time.Time, attrs ...Attr) {
	if t == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	// Both endpoints truncate against the same origin before the duration
	// is derived: two spans sharing a boundary time.Time then tile exactly
	// (a.End() == b.StartUs) — truncating start and duration independently
	// would let rounding open 1µs seams.
	startUs := start.Sub(t.start).Microseconds()
	sp := Span{
		Name:    name,
		TID:     tid,
		StartUs: startUs,
		DurUs:   end.Sub(t.start).Microseconds() - startUs,
	}
	if len(attrs) > 0 {
		sp.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			sp.Attrs[a.K] = a.V
		}
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans, ordered by start offset
// (stable on recording order within a start time).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartUs < out[j].StartUs })
	return out
}

// Dropped returns how many spans were discarded at the maxSpans bound.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// ---------------------------------------------------------------------------
// Context plumbing
// ---------------------------------------------------------------------------

type traceKey struct{}

// WithTrace attaches a trace to a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

type loggerKey struct{}

// WithLogger attaches a request-scoped logger to a context, so lines
// logged deep inside a handler carry the request's bound fields.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey{}, l)
}

// LoggerFrom returns the context's logger, or nil (log nothing).
func LoggerFrom(ctx context.Context) *slog.Logger {
	l, _ := ctx.Value(loggerKey{}).(*slog.Logger)
	return l
}

// NewRequestID mints a 16-hex-char request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed
		// fallback keeps telemetry non-fatal by construction.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ---------------------------------------------------------------------------
// Trace store
// ---------------------------------------------------------------------------

// TraceStore ring-buffers the last N finished traces by request ID.
type TraceStore struct {
	mu   sync.Mutex
	cap  int
	byID map[string]*Trace
	ring []string // request IDs in insertion order, oldest first
}

// NewTraceStore builds a store holding up to n traces (n<=0 = 256).
func NewTraceStore(n int) *TraceStore {
	if n <= 0 {
		n = 256
	}
	return &TraceStore{cap: n, byID: make(map[string]*Trace)}
}

// Put deposits a finished trace, evicting the oldest when full. A re-used
// request ID replaces the prior trace without growing the ring.
func (s *TraceStore) Put(t *Trace) {
	if s == nil || t == nil || t.id == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[t.id]; ok {
		s.byID[t.id] = t
		return
	}
	if len(s.ring) >= s.cap {
		old := s.ring[0]
		s.ring = s.ring[1:]
		delete(s.byID, old)
	}
	s.ring = append(s.ring, t.id)
	s.byID[t.id] = t
}

// Get returns the trace under a request ID.
func (s *TraceStore) Get(id string) (*Trace, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	return t, ok
}

// Cap returns the ring capacity.
func (s *TraceStore) Cap() int {
	if s == nil {
		return 0
	}
	return s.cap
}

// Len returns the number of resident traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

// ChromeEvent is one Chrome trace-event "X" (complete) record. Ts and
// Dur fill the format's microsecond fields: wall-clock µs for request
// spans, simulated cycles for the obs pipeline view.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeDoc is a Chrome trace-event JSON document (load in
// chrome://tracing or Perfetto). It is the one trace-event encoder of the
// repo: request traces here and the obs pipeline view both write through
// it.
type ChromeDoc struct {
	TraceEvents     []ChromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// Write encodes the document as one JSON line; no events encode as [].
func (d *ChromeDoc) Write(w io.Writer) error {
	if d.TraceEvents == nil {
		d.TraceEvents = []ChromeEvent{}
	}
	return json.NewEncoder(w).Encode(d)
}

// WriteChromeTrace exports the trace as Chrome trace-event JSON: one "X"
// event per span, requester and worker spans on separate rows, attributes
// as args.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	doc := ChromeDoc{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"requestId": t.ID(),
		},
	}
	if d := t.Dropped(); d > 0 {
		doc.OtherData["droppedSpans"] = d
	}
	for _, sp := range t.Spans() {
		var args map[string]any
		if len(sp.Attrs) > 0 {
			args = make(map[string]any, len(sp.Attrs))
			for k, v := range sp.Attrs {
				args[k] = v
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: sp.Name, Cat: "request", Ph: "X",
			Ts: sp.StartUs, Dur: sp.DurUs,
			Pid: 1, Tid: sp.TID, Args: args,
		})
	}
	return doc.Write(w)
}

// SpansDoc is the raw-span export schema of /v1/trace/{id}?format=spans.
type SpansDoc struct {
	RequestID string `json:"requestId"`
	Dropped   int    `json:"droppedSpans,omitempty"`
	Spans     []Span `json:"spans"`
}

// WriteSpansJSON exports the trace as its raw span records — the form the
// round-trip tests and CLI span assertions consume.
func (t *Trace) WriteSpansJSON(w io.Writer) error {
	doc := SpansDoc{RequestID: t.ID(), Dropped: t.Dropped(), Spans: t.Spans()}
	if doc.Spans == nil {
		doc.Spans = []Span{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}
