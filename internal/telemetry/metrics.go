// Package telemetry is the serving layer's service-grade instrumentation:
// a zero-dependency metrics registry rendered in Prometheus text exposition
// format, and request-scoped tracing with Chrome-trace-event export.
//
// It is deliberately separate from internal/metrics (simulation-domain
// statistics: occupancy histograms, geomeans) and internal/obs (per-run
// probe observability inside the simulator). telemetry instruments the
// *service* around the simulator — request rates, queue waits, cache
// traffic — with the operational conventions that entails: atomic hot
// paths so instruments can sit on request paths without locks, float64
// samples, cumulative histogram buckets, and a stable scrapeable text
// rendering.
//
// Instruments are nil-safe: methods on a nil *Counter/*Gauge/*Histogram
// are no-ops, so components accept an optional registry and skip all
// telemetry plumbing when none is configured (tests, library use).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

// Counter is a monotonically increasing float64 (atomic CAS hot path).
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(delta float64) {
	if c == nil || delta < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64 (atomic store hot path).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// shape: Observe(v) lands in the first bucket whose upper bound is >= v,
// the +Inf bucket counts everything, and _sum/_count accompany the
// buckets at exposition. The hot path is one atomic add per observation
// plus one CAS for the sum.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf bucket, and the total count.
func (h *Histogram) snapshot() (cum []uint64, total uint64) {
	cum = make([]uint64, len(h.bounds)+1)
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, run
}

// Quantile estimates the q-quantile (0..1) by linear interpolation inside
// the containing bucket — the usual Prometheus-side estimation, provided
// here so CLIs can render p50/p99 from a scrape without a query engine.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	cum, total := h.snapshot()
	return quantileFromBuckets(h.bounds, cum, total, q)
}

// quantileFromBuckets interpolates a quantile from cumulative bucket
// counts (the last entry of cum is the +Inf bucket).
func quantileFromBuckets(bounds []float64, cum []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, c := range cum {
		if float64(c) >= rank {
			if i >= len(bounds) { // +Inf bucket: clamp to the last finite bound
				return bounds[len(bounds)-1]
			}
			lo, loCount := 0.0, uint64(0)
			if i > 0 {
				lo, loCount = bounds[i-1], cum[i-1]
			}
			width := float64(c - loCount)
			if width == 0 {
				return bounds[i]
			}
			return lo + (bounds[i]-lo)*(rank-float64(loCount))/width
		}
	}
	return bounds[len(bounds)-1]
}

// DefBuckets is the default latency bucket layout in seconds: 100µs to
// 10s, roughly ×2.5 per step — wide enough to cover a cache hit (~100µs)
// and a cold 10M-instruction simulation in the same instrument.
func DefBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// metric types in the exposition.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instance of a family.
type series struct {
	labels string // canonical rendered label set, "" for unlabeled
	inst   any    // *Counter | *Gauge | *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
	byLabels        map[string]*series
}

// CollectFunc feeds scrape-time samples into an exposition pass. A
// collector runs exactly once per scrape, so a component can snapshot its
// whole stats struct under one lock and emit every derived series from
// that single coherent view — the "never torn" discipline /metricsz
// promises.
type CollectFunc func(emit Emit)

// Emit adds one scrape-time sample. typ is "counter" or "gauge"; labels
// are alternating key/value pairs.
type Emit func(name, typ, help string, value float64, labels ...string)

// Registry holds instrument families and renders them as Prometheus text
// exposition. Registration is idempotent: asking for an existing
// (name, labels) pair returns the prior instrument. Conflicting
// re-registration (same name, different type) panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu         sync.Mutex
	fams       map[string]*family
	collectors []CollectFunc
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter returns the counter under name and labels, creating it on first
// use. Labels are alternating key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.instrument(name, help, typeCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge under name and labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.instrument(name, help, typeGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram under name and labels, creating it with
// the given ascending upper bounds on first use (nil bounds = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	mk := func() any {
		b := bounds
		if len(b) == 0 {
			b = DefBuckets()
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				panic("telemetry: histogram bounds must be strictly ascending")
			}
		}
		h := &Histogram{bounds: append([]float64(nil), b...)}
		h.counts = make([]atomic.Uint64, len(b)+1)
		return h
	}
	return r.instrument(name, help, typeHistogram, labels, mk).(*Histogram)
}

// RegisterCollector adds a scrape-time sample source.
func (r *Registry) RegisterCollector(fn CollectFunc) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

func (r *Registry) instrument(name, help, typ string, labels []string, mk func() any) any {
	sig := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]*series)}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	if s, ok := f.byLabels[sig]; ok {
		return s.inst
	}
	s := &series{labels: sig, inst: mk()}
	f.byLabels[sig] = s
	f.series = append(f.series, s)
	return s.inst
}

// renderLabels canonicalizes alternating key/value pairs into the
// exposition label block: keys sorted, values escaped. "" when empty.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("telemetry: labels must be alternating key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes: backslash,
// double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp applies the HELP-line escapes: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLE appends an le label to a rendered label block.
func withLE(labels string, le float64) string {
	bound := formatValue(le)
	if labels == "" {
		return `{le="` + bound + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + bound + `"}`
}

// sampleLine is one rendered exposition line (without the metric name
// prefix decisions — name + suffix + labels + value).
type sampleLine struct {
	name   string // full series name (family name + optional suffix)
	labels string
	value  float64
}

// famOut is a render-ready family.
type famOut struct {
	name, help, typ string
	lines           []sampleLine
}

// gather produces the fully sorted render plan: instrument families plus
// collector samples, families sorted by name, series within a family
// sorted by label signature (histogram bucket lines keep ascending-le
// order inside their series).
func (r *Registry) gather() []famOut {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	collectors := append([]CollectFunc(nil), r.collectors...)
	r.mu.Unlock()

	byName := make(map[string]*famOut)
	add := func(name, help, typ string) *famOut {
		fo, ok := byName[name]
		if !ok {
			fo = &famOut{name: name, help: help, typ: typ}
			byName[name] = fo
		}
		return fo
	}

	for _, f := range fams {
		fo := add(f.name, f.help, f.typ)
		// Stable series order independent of registration order.
		ser := append([]*series(nil), f.series...)
		sort.Slice(ser, func(i, j int) bool { return ser[i].labels < ser[j].labels })
		for _, s := range ser {
			switch inst := s.inst.(type) {
			case *Counter:
				fo.lines = append(fo.lines, sampleLine{f.name, s.labels, inst.Value()})
			case *Gauge:
				fo.lines = append(fo.lines, sampleLine{f.name, s.labels, inst.Value()})
			case *Histogram:
				cum, total := inst.snapshot()
				for i, b := range inst.bounds {
					fo.lines = append(fo.lines, sampleLine{f.name + "_bucket", withLE(s.labels, b), float64(cum[i])})
				}
				fo.lines = append(fo.lines, sampleLine{f.name + "_bucket", withLE(s.labels, math.Inf(1)), float64(total)})
				fo.lines = append(fo.lines, sampleLine{f.name + "_sum", s.labels, inst.Sum()})
				fo.lines = append(fo.lines, sampleLine{f.name + "_count", s.labels, float64(total)})
			}
		}
	}

	for _, fn := range collectors {
		fn(func(name, typ, help string, value float64, labels ...string) {
			fo := add(name, help, typ)
			fo.lines = append(fo.lines, sampleLine{name, renderLabels(labels), value})
		})
	}

	out := make([]famOut, 0, len(byName))
	for _, fo := range byName {
		out = append(out, *fo)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders the registry (instruments plus collectors) in
// Prometheus text exposition format 0.0.4: families sorted by name, each
// preceded by its HELP/TYPE lines, series sorted by canonical label
// signature.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, f := range r.gather() {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, l := range f.lines {
			b.WriteString(l.name)
			b.WriteString(l.labels)
			b.WriteByte(' ')
			b.WriteString(formatValue(l.value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
