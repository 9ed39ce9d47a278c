package main

func newReport(o options) *report {
	return &report{
		Workload: o.Workload,
		Mode:     modeOf(o.Workload),
		Seed:     o.Seed,
		Seconds:  o.Seconds,
		Trace:    o.Trace,
		Host:     host(),
		Metrics:  map[string]metric{},
		Samples:  map[string]int{},
		Result:   result{Correct: true, Metrics: map[string]metric{}},
	}
}

// setEndToEnd records the metrics every workload's untraced run prints on
// its last line, and copies them into the full report.
func (r *report) setEndToEnd(setups []float64, cellsPerS, p50, p99 float64, rss float64) {
	e := map[string]metric{
		"setup_s":     {median(setups), "s"},
		"cells_per_s": {cellsPerS, "cells/s"},
		"cell_p50_ms": {p50, "ms"},
		"cell_p99_ms": {p99, "ms"},
		"max_rss_mb":  {rss, "MiB"},
	}
	for k, v := range e {
		r.Metrics[k] = v
		r.Result.Metrics[k] = v
	}
}

// finish derives failed_frac once attempted and failed are final.
func (r *report) finish() {
	r.Metrics["failed_frac"] = metric{ratio(float64(r.Result.Failed), float64(r.Result.Attempted)), "ratio"}
}
