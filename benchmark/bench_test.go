package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"parrot/internal/core"
	"parrot/internal/serve/proto"
	"parrot/internal/telemetry"
)

// TestMain lets spawn re-execute the test binary as a benchmark child.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

// tiny is a workload at test size: three applications at 3000
// instructions per cell, sub-second windows.
func tiny(t *testing.T, w string, trace bool) options {
	o := defaultOptions()
	o.Workload, o.Trace = w, trace
	o.Insts, o.Apps = 3000, []string{"gcc", "swim", "flash"}
	o.Seconds, o.Rate = 0.6, 100
	o.OutDir = t.TempDir()
	return o
}

type named struct{ Name, Unit string }

type contract struct {
	Workloads []named `json:"workloads"`
	EndToEnd  []named `json:"end_to_end"`
	PerLayer  []named `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// Every workload, untraced and traced, prints exactly the metrics
// BENCHMARK.json names, each with its unit, and passes its output checks.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	c := readContract(t)
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			rep, err := runOptions(tiny(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d/%d errors=%v", w.Name, trace,
					rep.Result.Correct, rep.Result.Failed, rep.Result.Attempted, rep.Errors)
			}
			got := rep.Result.Metrics
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(got), len(want))
			}
			for _, m := range want {
				if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, g, m.Unit)
				}
			}
		}
	}
}

// A doctored reference digest makes every workload's output check fail.
func TestDoctoredReferenceFails(t *testing.T) {
	for _, w := range []string{"matrix", "serve-mixed"} {
		o := tiny(t, w, false)
		o.RefDigest = strings.Repeat("0", 64)
		rep, err := runOptions(o)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.Result.Correct || rep.Result.Failed == 0 {
			t.Fatalf("%s: doctored reference passed: correct=%v failed=%d", w, rep.Result.Correct, rep.Result.Failed)
		}
	}
}

// A Degraded answer is a failed request in both load loops.
func TestDegradedCountsAsFailed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req proto.RunRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		want, _ := specDigest(req.Model, req.App, req.Insts)
		_ = json.NewEncoder(w).Encode(proto.RunResponse{
			Digest: "stale", Cached: true, Disposition: "degraded", Degraded: true,
			RequestedDigest: want, Result: &core.Result{App: "gcc"},
		})
	}))
	defer srv.Close()
	o := tiny(t, "serve-mixed", false)
	spec, err := specDigest("TON", "gcc", o.Insts)
	if err != nil {
		t.Fatal(err)
	}
	env := &serveEnv{o: o, nodes: []*node{{url: srv.URL}}, budget: o.Insts,
		cells: []cellRef{{model: "TON", app: "gcc", spec: spec, result: "unused"}}}

	closed, _, _ := closedLoop(env, 0.2, 1)
	open, _, _, err := openLoop(env, 0.2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, recs := range map[string][]reqRec{"closed": closed, "open": open} {
		rep := newReport(o)
		ok := tally(rep, recs)
		if len(recs) == 0 || len(ok) != 0 || rep.Result.Failed != rep.Result.Attempted {
			t.Fatalf("%s loop: %d ok, failed %d of %d", name, len(ok), rep.Result.Failed, rep.Result.Attempted)
		}
		if rep.Samples["degraded"] != len(recs) {
			t.Fatalf("%s loop: errors %v are not errDegraded", name, rep.Errors)
		}
	}
	if err := checkRun(&proto.RunResponse{Degraded: true}, nil, spec, ""); !errors.Is(err, errDegraded) {
		t.Fatalf("checkRun(degraded) = %v", err)
	}
}

// A worker span that starts a few µs before its requester's sched.wait is
// clipped, not rejected; overlapping siblings are rejected.
func TestSpanTiling(t *testing.T) {
	sp := func(name string, tid int, start, end int64) telemetry.Span {
		return telemetry.Span{Name: name, TID: tid, StartUs: start, DurUs: end - start}
	}
	miss := []telemetry.Span{
		sp("http.request", 1, 0, 100), sp("sched.submit", 1, 5, 95), sp("cache.get", 1, 6, 10),
		sp("sched.queued", 2, 11, 20), sp("sched.wait", 1, 14, 94), sp("machine.checkout", 2, 20, 22),
		sp("sim.run", 2, 22, 80), sp("cache.put", 2, 80, 84),
	}
	s := &spanStats{self: map[string][]float64{}, dur: map[string][]float64{}}
	if msg := s.fold(miss); msg != "" {
		t.Fatal(msg)
	}
	total := 0.0
	for _, v := range s.self {
		total += v[0]
	}
	if total != 100 || s.dur["sched.queued"][0] != 9 || s.self["sched.submit"][0] != 6 {
		t.Fatalf("self times %v sum to %v, want 100", s.self, total)
	}
	bad := append([]telemetry.Span(nil), miss...)
	bad[5] = sp("machine.checkout", 2, 20, 40) // overlaps sim.run
	if msg := s.fold(bad); msg == "" {
		t.Fatal("overlapping siblings tiled")
	}
}
