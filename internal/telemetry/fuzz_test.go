package telemetry

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseExposition drives the Prometheus text parser — the decoder
// behind every /metricsz consumer (parrotctl top/cluster/-expect and the
// benchmark ledger) — with arbitrary text. It must never panic, and
// whatever it accepts must be self-consistent: one value per listed
// series, and re-rendering the series as `key value` lines parses back to
// the same series and values. Seeds: the committed corpus under
// testdata/fuzz (a real scrape, a duplicate series, an escaped label
// value, a non-numeric value, a line over 64 KiB) plus a registry render.
func FuzzParseExposition(f *testing.F) {
	r := NewRegistry()
	r.Counter("a_total", "A.", "k", `v"q\u`).Add(2)
	h := r.Histogram("lat_seconds", "L.", []float64{0.01, 0.1})
	h.Observe(0.05)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String())

	f.Fuzz(func(t *testing.T, text string) {
		exp, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			return
		}
		if len(exp.Names) != len(exp.Series) {
			t.Fatalf("%d names for %d series", len(exp.Names), len(exp.Series))
		}
		var again strings.Builder
		families := map[string]bool{}
		for _, key := range exp.Names {
			if _, ok := exp.Series[key]; !ok {
				t.Fatalf("listed series %q has no value", key)
			}
			again.WriteString(key + " " + formatValue(exp.Series[key]) + "\n")
			name, _, _ := strings.Cut(key, "{")
			families[name] = true
		}
		for name := range families {
			exp.Family(name)
			if base, ok := strings.CutSuffix(name, "_bucket"); ok {
				exp.HistQuantile(base, "", 0.99)
			}
		}
		back, err := ParseExposition(strings.NewReader(again.String()))
		if err != nil {
			t.Fatalf("re-rendered series do not parse: %v\n%s", err, again.String())
		}
		if len(back.Names) != len(exp.Names) {
			t.Fatalf("round trip kept %d of %d series", len(back.Names), len(exp.Names))
		}
		for i, key := range exp.Names {
			v, w := exp.Series[key], back.Series[key]
			if back.Names[i] != key || (v != w && !(math.IsNaN(v) && math.IsNaN(w))) {
				t.Fatalf("series %d: %q=%v round-tripped to %q=%v", i, key, v, back.Names[i], w)
			}
		}
	})
}
