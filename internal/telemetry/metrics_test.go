package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusExpositionGolden pins the exact text rendering: family
// ordering (sorted by name, interleaving instrument and collector
// families), HELP/TYPE lines, label-key sorting, label-value escaping,
// histogram bucket/sum/count shape and +Inf formatting. The exposition is
// a wire format consumed by real scrapers — byte-stable output is the
// contract.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("parrot_requests_total", "Requests by route.", "route", "run").Add(3)
	r.Counter("parrot_requests_total", "Requests by route.", "route", "matrix").Add(1)
	// Registration order of labels must not matter: sorted at render.
	r.Gauge("parrot_queue_depth", "Queue depth.", "class", "interactive", "a", "z").Set(2)
	// Escaping: backslash, quote, newline in a label value.
	r.Counter("parrot_weird_total", "Help with \\ and\nnewline.", "app", "we\"ird\\\nval").Inc()
	h := r.Histogram("parrot_wait_seconds", "Queue wait.", []float64{0.001, 0.01, 0.1}, "class", "batch")
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	r.RegisterCollector(func(emit Emit) {
		emit("parrot_pool_size", "gauge", "Pooled machines.", 7)
		emit("parrot_cache_bytes", "gauge", "Resident cache bytes.", 1024, "level", "mem")
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP parrot_cache_bytes Resident cache bytes.
# TYPE parrot_cache_bytes gauge
parrot_cache_bytes{level="mem"} 1024
# HELP parrot_pool_size Pooled machines.
# TYPE parrot_pool_size gauge
parrot_pool_size 7
# HELP parrot_queue_depth Queue depth.
# TYPE parrot_queue_depth gauge
parrot_queue_depth{a="z",class="interactive"} 2
# HELP parrot_requests_total Requests by route.
# TYPE parrot_requests_total counter
parrot_requests_total{route="matrix"} 1
parrot_requests_total{route="run"} 3
# HELP parrot_wait_seconds Queue wait.
# TYPE parrot_wait_seconds histogram
parrot_wait_seconds_bucket{class="batch",le="0.001"} 1
parrot_wait_seconds_bucket{class="batch",le="0.01"} 2
parrot_wait_seconds_bucket{class="batch",le="0.1"} 2
parrot_wait_seconds_bucket{class="batch",le="+Inf"} 3
parrot_wait_seconds_sum{class="batch"} 5.0055
parrot_wait_seconds_count{class="batch"} 3
# HELP parrot_weird_total Help with \\ and\nnewline.
# TYPE parrot_weird_total counter
parrot_weird_total{app="we\"ird\\\nval"} 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExpositionParsesBack round-trips the rendered exposition through the
// parser every CLI consumer uses.
func TestExpositionParsesBack(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.", "k", `v"q\u`).Add(2.5)
	r.Gauge("b", "B.").Set(-1.25)
	h := r.Histogram("lat_seconds", "L.", []float64{0.01, 0.1})
	for i := 0; i < 100; i++ {
		h.Observe(0.05)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("rendered exposition did not parse: %v", err)
	}
	if v, ok := exp.Get(`a_total{k="v\"q\\u"}`); !ok || v != 2.5 {
		t.Fatalf("a_total = %v, %v", v, ok)
	}
	if v, ok := exp.Get("b"); !ok || v != -1.25 {
		t.Fatalf("b = %v, %v", v, ok)
	}
	if v, ok := exp.Get(`lat_seconds_bucket{le="+Inf"}`); !ok || v != 100 {
		t.Fatalf("+Inf bucket = %v, %v", v, ok)
	}
	if exp.Types["lat_seconds"] != "histogram" || exp.Types["a_total"] != "counter" {
		t.Fatalf("types = %v", exp.Types)
	}
	if q, ok := exp.HistQuantile("lat_seconds", "", 0.5); !ok || q <= 0.01 || q > 0.1 {
		t.Fatalf("p50 = %v, %v (want in (0.01, 0.1])", q, ok)
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "X.", "k", "v")
	c2 := r.Counter("x_total", "X.", "k", "v")
	if c1 != c2 {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c1.Inc()
	if c2.Value() != 1 {
		t.Fatal("instrument not shared")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict did not panic")
		}
	}()
	r.Gauge("x_total", "X.")
}

func TestInstrumentsNilSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments returned non-zero")
	}
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry minted instruments")
	}
	r.RegisterCollector(func(Emit) {})
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines under
// the race detector: counts must conserve.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "C.", []float64{1, 2, 4})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w % 5))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var sum float64
	for w := 0; w < workers; w++ {
		sum += float64(w%5) * per
	}
	if math.Abs(h.Sum()-sum) > 1e-6 {
		t.Fatalf("sum = %g, want %g", h.Sum(), sum)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "Q.", []float64{10, 20, 40})
	for i := 0; i < 100; i++ {
		h.Observe(15) // all in the (10,20] bucket
	}
	p50 := h.Quantile(0.5)
	if p50 <= 10 || p50 > 20 {
		t.Fatalf("p50 = %g, want within (10, 20]", p50)
	}
	if got := h.Quantile(1.0); got != 20 {
		t.Fatalf("p100 = %g, want 20 (upper bound of containing bucket)", got)
	}
	// Empty histogram.
	h2 := r.Histogram("q2_seconds", "Q2.", []float64{1})
	if h2.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}
