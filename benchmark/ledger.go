package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"parrot"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/opt"
	"parrot/internal/serve/cache"
	"parrot/internal/serve/proto"
	"parrot/internal/serve/sched"
	"parrot/internal/telemetry"
	"parrot/internal/trace"
	"parrot/internal/workload"
)

// The traced run measures the whole per-layer ledger whatever the
// workload: every layer's metrics come from the phase that exercises it
// (matrix fan-out and layer calls, serve-hit, serve-mixed). The named
// workload's phase additionally runs untraced first, for
// bench.trace_overhead_frac, and only its traced window is CPU-profiled,
// so cpu.* describes that workload. The other phases, serve-hit always
// among them, run for a third of the window.

// ledger accumulates per-layer metrics with their sample counts.
type ledger struct {
	m       map[string]metric
	samples map[string]int
}

func (l *ledger) set(name, unit string, v float64) { l.m[name] = metric{v, unit} }

// q records the q-quantile of xs (q = 1 records the maximum).
func (l *ledger) q(name, unit string, xs []float64, q float64) {
	l.set(name, unit, quantile(xs, q))
	l.samples[name] = len(xs)
}

// chromeEvent is one Chrome trace-event record; ts and dur are µs.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Chrome rows: the benchmark's own spans and the spans fetched from node 0.
const (
	pidBench = 1
	pidNode0 = 2

	tidPhase  = 1
	tidWorker = 10  // + fan-out worker index
	tidSender = 100 // + load client index
)

// maxEvents bounds the trace file; spans past it are counted, not kept.
const maxEvents = 200000

// tracer keeps the benchmark's spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	events  []chromeEvent
	dropped int
}

func (t *tracer) span(name string, pid, tid int, start, end time.Time, args map[string]any) {
	t.add(chromeEvent{Name: name, Ph: "X", Ts: us(start.Sub(t.t0)), Dur: us(end.Sub(start)), Pid: pid, Tid: tid, Args: args})
}

func (t *tracer) add(e chromeEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= maxEvents {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

func (t *tracer) write(path string) error {
	meta := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: pidBench, Args: map[string]any{"name": "benchmark"}},
		{Name: "process_name", Ph: "M", Pid: pidNode0, Args: map[string]any{"name": "node 0 request spans (aligned at client send)"}},
	}
	doc := map[string]any{
		"traceEvents":     append(meta, t.events...),
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"droppedEvents": t.dropped},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuProfile profiles the named workload's traced window.
type cpuProfile struct{ buf bytes.Buffer }

func (p *cpuProfile) start() error {
	if p == nil {
		return nil
	}
	return pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfile) stop() {
	if p != nil {
		pprof.StopCPUProfile()
	}
}

func runLedger(o options) (*report, error) {
	rep := newReport(o)
	l := &ledger{m: map[string]metric{}, samples: map[string]int{}}
	tr := &tracer{t0: time.Now()}
	prof := &cpuProfile{}
	profFor := func(w string) *cpuProfile {
		if w == o.Workload {
			return prof
		}
		return nil
	}
	w := nproc()
	rep.Load = loadInfo{Workers: w, Clients: w, Connections: w, Nodes: 2, Loop: "all three phases", InstsPerCell: o.Insts,
		OfferedRate: o.Rate, MissFrac: 1.0 / missEvery, Cells: len(config.All()) * len(roster(o))}

	sample, err := ledgerMatrix(o, rep, l, tr, profFor("matrix"))
	if err != nil {
		return nil, err
	}
	if err := ledgerLayers(o, l, tr, sample); err != nil {
		return nil, err
	}
	if err := ledgerHit(o, rep, l, tr); err != nil {
		return nil, err
	}
	if err := ledgerMixed(o, rep, l, tr, profFor("serve-mixed")); err != nil {
		return nil, err
	}
	l.set("api.degraded", "count", float64(rep.Samples["degraded"]))

	shares, err := cpuShares(prof.buf.Bytes())
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		l.set("cpu."+k, "frac", v)
	}

	base := filepath.Join(o.OutDir, fmt.Sprintf("%s-seed%d", o.Workload, o.Seed))
	if err := os.WriteFile(base+"-cpu.pprof", prof.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := tr.write(base + "-spans.json"); err != nil {
		return nil, err
	}
	if err := writeJSONFile(base+"-ledger.json", map[string]any{"metrics": l.m, "samples": l.samples}); err != nil {
		return nil, err
	}
	for k, v := range l.m {
		rep.Metrics[k] = v
	}
	rep.Result.Metrics, rep.Samples = l.m, l.samples
	rep.Notes = append(rep.Notes, "artifacts: "+base+"-{ledger.json,spans.json,cpu.pprof}")
	return rep, nil
}

// secondary is the window of the phases the run is not named after.
func secondary(o options) float64 { return o.Seconds / 3 }

// cellTime is one traced fan-out cell.
type cellTime struct {
	model config.Model
	ms    float64
	res   *core.Result
}

// ledgerMatrix times experiments.Run (untraced, with runtime deltas) and
// then a traced fan-out over the same cells and worker count that times
// every core.Pool.Get and core.RunWarmOn. Both must reproduce the
// reference digest. It returns one cell's result for the layer calls.
func ledgerMatrix(o options, rep *report, l *ledger, tr *tracer, prof *cpuProfile) (*core.Result, error) {
	ref, err := reference(o)
	if err != nil {
		return nil, err
	}
	apps := roster(o)
	models := config.All()
	for _, p := range apps {
		workload.GenerateCached(p)
	}
	workers := runtime.GOMAXPROCS(0)
	for _, m := range models {
		core.DefaultPool.Prewarm(m, workers)
	}
	check := func(what string, digest string) {
		rep.Result.Attempted += len(models) * len(apps)
		if digest != ref {
			rep.Result.Failed += len(models) * len(apps)
			rep.Result.Correct = false
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s digest %.12s, want %.12s", what, digest, ref))
		}
	}

	var ms0, ms1 runtime.MemStats
	gc0, cpu0 := gcCPU()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	res := experiments.Run(experiments.Config{Insts: o.Insts, Apps: apps, Parallelism: workers})
	t1 := time.Now()
	runtime.ReadMemStats(&ms1)
	gc1, cpu1 := gcCPU()
	tr.span("experiments.Run", pidBench, tidPhase, t0, t1, nil)
	check("experiments.Run", res.Digest())
	runS := t1.Sub(t0).Seconds()
	l.set("experiments.run_s", "s", runS)
	l.set("runtime.allocs", "count", float64(ms1.Mallocs-ms0.Mallocs))
	l.set("runtime.alloc_mb", "MiB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	l.set("runtime.gc_cpu_frac", "frac", ratio(gc1-gc0, cpu1-cpu0))

	if err := prof.start(); err != nil {
		return nil, err
	}
	cells, gets, wall := fanOut(o, apps, workers, tr)
	prof.stop()
	byCell := map[string]*core.Result{}
	for _, c := range cells {
		byCell[string(c.model.ID)+"/"+c.res.App] = c.res
	}
	fan := experiments.Assemble(models, apps, o.Insts, func(m config.Model, p workload.Profile) *core.Result {
		return byCell[string(m.ID)+"/"+p.Name]
	})
	check("traced fan-out", fan.Digest())
	if prof != nil {
		l.set("bench.trace_overhead_frac", "frac", wall/runS-1)
	}

	var cellMs []float64
	perModel := map[config.ModelID][]float64{}
	var busyNs, cycles, uops, hot, cold, tcHits, tcLookups, tpCorrect, tpPred, mispred, builds, aborts, opts float64
	for _, c := range cells {
		cellMs = append(cellMs, c.ms)
		perModel[c.model.ID] = append(perModel[c.model.ID], c.ms)
		r := c.res
		busyNs += c.ms * 1e6
		cycles += float64(r.Cycles)
		uops += float64(r.UopsDispatched)
		hot += float64(r.HotInsts)
		cold += float64(r.ColdInsts)
		tcHits += float64(r.TCStats.Hits)
		tcLookups += float64(r.TCStats.Lookups)
		tpCorrect += float64(r.TPredStats.Correct)
		tpPred += float64(r.TPredStats.Predictions)
		mispred += float64(r.BranchStats.Mispredicts)
		builds += float64(r.TraceBuilds)
		aborts += float64(r.TraceAborts)
		opts += float64(r.Optimizations)
	}
	l.q("core.cell_ms.p50", "ms", cellMs, 0.5)
	l.q("core.cell_ms.max", "ms", cellMs, 1)
	for _, m := range models {
		l.set("core.cell_ms."+string(m.ID), "ms", mean(perModel[m.ID]))
	}
	l.set("core.pool_get_us", "us", mean(gets))
	l.samples["core.pool_get_us"] = len(gets)
	l.set("core.sim_cycles", "count", cycles)
	l.set("core.uops_dispatched", "count", uops)
	l.set("core.host_ns_per_cycle", "ns", ratio(busyNs, cycles))
	l.set("core.host_ns_per_uop", "ns", ratio(busyNs, uops))
	l.set("core.hot_coverage", "ratio", ratio(hot, hot+cold))
	l.set("tcache.hit_rate", "ratio", ratio(tcHits, tcLookups))
	l.set("tpred.accuracy", "ratio", ratio(tpCorrect, tpPred))
	l.set("branch.mispredicts", "count", mispred)
	l.set("trace.builds", "count", builds)
	l.set("trace.aborts", "count", aborts)
	l.set("opt.optimizations", "count", opts)
	return cells[0].res, nil
}

// gcCPU returns the process's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// fanOut mirrors experiments.Run's fan-out — model-major jobs, one
// machine per (worker, model) from a freshly prewarmed pool, Reset between
// cells — and times each Pool.Get and RunWarmOn.
func fanOut(o options, apps []workload.Profile, workers int, tr *tracer) ([]cellTime, []float64, float64) {
	models := config.All()
	pool := core.NewPool()
	for _, m := range models {
		pool.Prewarm(m, workers)
	}
	n := len(models) * len(apps)
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	out := make([]cellTime, n)
	gets := make([][]float64, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := map[config.Model]*core.Machine{}
			defer func() {
				for _, m := range local {
					pool.Put(m)
				}
			}()
			for idx := range jobs {
				model, app := models[idx/len(apps)], apps[idx%len(apps)]
				m := local[model]
				if m == nil {
					t0 := time.Now()
					m = pool.Get(model)
					t1 := time.Now()
					gets[w] = append(gets[w], us(t1.Sub(t0)))
					tr.span("core.Pool.Get", pidBench, tidWorker+w, t0, t1, map[string]any{"model": string(model.ID)})
					local[model] = m
				} else {
					m.Reset()
				}
				t0 := time.Now()
				r := core.RunWarmOn(m, app, o.Insts)
				t1 := time.Now()
				tr.span("core.RunWarmOn", pidBench, tidWorker+w, t0, t1, map[string]any{"model": string(model.ID), "app": app.Name})
				out[idx] = cellTime{model: model, ms: float64(t1.Sub(t0)) / 1e6, res: r}
			}
		}(w)
	}
	wg.Wait()
	wall := since(start)
	var all []float64
	for _, g := range gets {
		all = append(all, g...)
	}
	return out, all, wall
}

// layerReps is how many times each serving-layer call is repeated.
const layerReps = 300

// ledgerLayers times single layers called alone: program synthesis, the
// instruction stream, trace selection and build, the optimizer, and the
// JSON and digest work of one served cell.
func ledgerLayers(o options, l *ledger, tr *tracer, sample *core.Result) error {
	apps := roster(o)
	t0 := time.Now()
	var genMs []float64
	for _, p := range apps {
		s := time.Now()
		workload.Generate(p)
		genMs = append(genMs, float64(time.Since(s))/1e6)
	}
	l.set("workload.generate_ms", "ms", mean(genMs))
	l.samples["workload.generate_ms"] = len(genMs)

	var streamNs, feedNs, buildNs, insts, builtUops float64
	for _, p := range apps {
		prog := workload.GenerateCached(p)
		s := workload.NewStream(prog, o.Insts)
		st := time.Now()
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		streamNs += float64(time.Since(st))

		ds := workload.NewStream(prog, o.Insts).Drain(o.Insts)
		insts += float64(len(ds))
		sel := trace.NewSelector()
		st = time.Now()
		for i := range ds {
			segs := sel.Feed(&ds[i])
			for j := range segs {
				sel.Recycle(&segs[j])
			}
		}
		feedNs += float64(time.Since(st))

		sel = trace.NewSelector()
		build := func(segs []trace.Segment) {
			for j := range segs {
				bt := time.Now()
				t := trace.Build(&segs[j])
				buildNs += float64(time.Since(bt))
				builtUops += float64(len(t.Uops))
				sel.Recycle(&segs[j])
			}
		}
		for i := range ds {
			build(sel.Feed(&ds[i]))
		}
		build(sel.Flush())
	}
	l.set("workload.stream_ns_per_inst", "ns", ratio(streamNs, insts))
	l.set("trace.feed_ns_per_inst", "ns", ratio(feedNs, insts))
	l.set("trace.build_ns_per_uop", "ns", ratio(buildNs, builtUops))

	optz := opt.New(opt.AllOptimizations())
	var optUs []float64
	for _, p := range apps {
		for _, t := range parrot.SampleTraces(p, o.Insts, 64) {
			s := time.Now()
			optz.Optimize(t)
			optUs = append(optUs, us(time.Since(s)))
		}
	}
	l.set("opt.optimize_us_per_trace", "us", mean(optUs))
	l.samples["opt.optimize_us_per_trace"] = len(optUs)

	resp := proto.RunResponse{Digest: "sample", Disposition: "hit", Cached: true, RequestID: "0123456789abcdef",
		ResultDigest: experiments.ResultDigest(sample), Result: sample}
	var b []byte
	var err error
	timeEach := func(name string, fn func() error) error {
		s := time.Now()
		for i := 0; i < layerReps; i++ {
			if err := fn(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		l.set(name, "us", us(time.Since(s))/layerReps)
		l.samples[name] = layerReps
		return nil
	}
	if err := timeEach("proto.encode_us", func() error { b, err = json.Marshal(resp); return err }); err != nil {
		return err
	}
	if err := timeEach("proto.decode_us", func() error { var r proto.RunResponse; return json.Unmarshal(b, &r) }); err != nil {
		return err
	}
	if err := timeEach("client.verify_us", func() error {
		if experiments.ResultDigest(sample) != resp.ResultDigest {
			return errMismatch
		}
		return nil
	}); err != nil {
		return err
	}
	tr.span("layer calls", pidBench, tidPhase, t0, time.Now(), nil)
	return nil
}

// ledgerHit runs the serve-hit phase: a traced closed loop of cached
// requests on one node with the handler timer on, then fetches the §12
// spans of its last requests.
func ledgerHit(o options, rep *report, l *ledger, tr *tracer) error {
	env, err := setupServe(o, 1, nproc())
	if err != nil {
		return err
	}
	defer env.close()
	env.markSetup(rep)
	n0 := env.nodes[0]
	n0.timer.on.Store(true)
	recs, start, _ := closedLoop(env, secondary(o), o.Seed+1)
	n0.timer.on.Store(false)
	handler := n0.timer.take()
	ok := tally(rep, recs)

	var hUs, overUs []float64
	for _, r := range ok {
		if h, found := handler[r.ID]; found {
			hUs = append(hUs, us(h))
			overUs = append(overUs, us(r.Done-r.Sent-h))
		}
	}
	l.q("api.handler_us.p50", "us", hUs, 0.5)
	l.q("api.handler_us.p99", "us", hUs, 0.99)
	l.q("client.overhead_us.p50", "us", overUs, 0.5)

	sp, err := fetchSpans(n0.url, ok, spanSample, start, tr)
	if err != nil {
		return err
	}
	sp.check(rep, "serve-hit")
	l.q("api.self_us.p50", "us", sp.self["http.request"], 0.5)
	l.q("cache.get_us.p50", "us", sp.dur["cache.get"], 0.5)
	l.q("cache.get_us.p99", "us", sp.dur["cache.get"], 0.99)
	return nil
}

// fleetSnap is the in-process counters of every node at one instant.
type fleetSnap struct {
	sched []sched.Stats
	cache []cache.Stats
	expo  *telemetry.Exposition
}

func snapshot(env *serveEnv) (fleetSnap, error) {
	var s fleetSnap
	for _, n := range env.nodes {
		s.sched = append(s.sched, n.sched.Stats())
		s.cache = append(s.cache, n.cache.Stats())
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var err error
	s.expo, err = newClient(env.nodes[0].url).MetricsText(ctx)
	return s, err
}

// ledgerMixed runs the serve-mixed phase: a traced open-loop window on the
// two-node swarm, fleet counter deltas around it, and node 0's spans.
func ledgerMixed(o options, rep *report, l *ledger, tr *tracer, prof *cpuProfile) error {
	env, err := setupServe(o, 2, 1)
	if err != nil {
		return err
	}
	defer env.close()
	env.markSetup(rep)
	window := secondary(o)
	untraced := 0.0
	if prof != nil {
		window = o.Seconds
		recs, _, _, err := openLoop(env, window, o.Seed, 0)
		if err != nil {
			return err
		}
		untraced = median(latencies(tally(rep, recs), all))
	}
	before, err := snapshot(env)
	if err != nil {
		return err
	}
	if err := prof.start(); err != nil {
		return err
	}
	recs, start, el, err := openLoop(env, window, o.Seed, 1)
	prof.stop()
	if err != nil {
		return err
	}
	after, err := snapshot(env)
	if err != nil {
		return err
	}
	ok := tally(rep, recs)
	resimulate(rep, ok, resimPerProc, o.Seed)
	if prof != nil {
		l.set("bench.trace_overhead_frac", "frac", median(latencies(ok, all))/untraced-1)
	}
	l.q("loadgen.late_ms.p99", "ms", lateMs(recs), 0.99)

	var completed, deduped, shed, deadline, busy, workers, hits, lookups float64
	for i := range env.nodes {
		b, a := before.sched[i], after.sched[i]
		completed += float64(a.Completed - b.Completed)
		deduped += float64(a.Deduped - b.Deduped)
		shed += float64(a.ShedInteractive + a.ShedBatch - b.ShedInteractive - b.ShedBatch)
		deadline += float64(a.DeadlineRejected - b.DeadlineRejected)
		busy += (a.BusyTime - b.BusyTime).Seconds()
		workers += float64(a.Workers)
		hits += float64(after.cache[i].Hits - before.cache[i].Hits)
		lookups += float64(after.cache[i].Hits + after.cache[i].Misses - before.cache[i].Hits - before.cache[i].Misses)
	}
	l.set("sched.completed", "count", completed)
	l.set("sched.deduped", "count", deduped)
	l.set("sched.shed", "count", shed)
	l.set("sched.deadline_rejected", "count", deadline)
	l.set("sched.busy_frac", "frac", ratio(busy, workers*el))
	l.set("cache.hit_ratio", "ratio", ratio(hits, lookups))
	delta := func(key string) float64 {
		a, _ := after.expo.Get(key)
		b, _ := before.expo.Get(key)
		return a - b
	}
	l.set("cluster.forwards", "count", delta(`parrot_cluster_forwards_total{outcome="ok"}`)+delta(`parrot_cluster_forwards_total{outcome="error"}`))
	l.set("cluster.retries", "count", delta("parrot_cluster_retries_total"))
	l.set("cluster.hedges", "count", delta("parrot_cluster_hedges_total"))

	sp, err := fetchSpans(env.nodes[0].url, ok, spanSample, start, tr)
	if err != nil {
		return err
	}
	sp.check(rep, "serve-mixed")
	l.q("sched.submit_self_us.p50", "us", sp.self["sched.submit"], 0.5)
	l.q("sched.queued_ms.p50", "ms", msOf(sp.dur["sched.queued"]), 0.5)
	l.q("sched.queued_ms.p99", "ms", msOf(sp.dur["sched.queued"]), 0.99)
	l.q("sched.checkout_us.p99", "us", sp.dur["machine.checkout"], 0.99)
	l.q("sched.run_ms.p50", "ms", msOf(sp.dur["sim.run"]), 0.5)
	l.q("sched.run_ms.p99", "ms", msOf(sp.dur["sim.run"]), 0.99)
	l.q("cache.put_us.p99", "us", sp.dur["cache.put"], 0.99)
	l.q("cluster.forward_ms.p50", "ms", msOf(sp.dur["cluster.forward"]), 0.5)
	l.q("cluster.forward_ms.p99", "ms", msOf(sp.dur["cluster.forward"]), 0.99)
	return nil
}

func msOf(usv []float64) []float64 {
	out := make([]float64, len(usv))
	for i, v := range usv {
		out[i] = v / 1000
	}
	return out
}

// spanParent is the §12 span tree of one /v1/run: requester-row spans
// nest by call, and the worker-row spans run inside the requester's
// sched.wait. A span whose named parent is absent hangs off http.request.
var spanParent = map[string]string{
	"sched.submit":     "http.request",
	"cluster.forward":  "http.request",
	"cache.get":        "sched.submit",
	"sched.wait":       "sched.submit",
	"sched.queued":     "sched.wait",
	"machine.checkout": "sched.wait",
	"sim.run":          "sched.wait",
	"cache.put":        "sched.wait",
}

// spanStats are the fetched spans folded by name, in µs.
type spanStats struct {
	self, dur map[string][]float64
	requests  int
	untiled   []string
}

// check fails the run when a request's spans do not tile its root.
func (s *spanStats) check(rep *report, phase string) {
	if len(s.untiled) == 0 {
		return
	}
	rep.Result.Correct = false
	rep.Result.Failed += len(s.untiled)
	rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %d of %d request traces do not tile, e.g. %s", phase, len(s.untiled), s.requests, s.untiled[0]))
}

// fetchSpans fetches the §12 spans of the last n answered requests, folds
// self times along spanParent and checks that every request's spans tile
// its http.request span: each child lies inside its parent and siblings do
// not overlap, so the self times sum to the root's duration. Benchmark and
// server spans of those requests go to the Chrome trace.
func fetchSpans(url string, ok []reqRec, n int, start time.Time, tr *tracer) (*spanStats, error) {
	s := &spanStats{self: map[string][]float64{}, dur: map[string][]float64{}}
	if len(ok) > n {
		ok = ok[len(ok)-n:]
	}
	cl := newClient(url)
	for _, r := range ok {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		doc, err := cl.TraceSpans(ctx, r.ID)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("spans of %s: %w", r.ID, err)
		}
		s.requests++
		if msg := s.fold(doc.Spans); msg != "" {
			s.untiled = append(s.untiled, r.ID+": "+msg)
		}
		sent := start.Add(r.Sent)
		tr.span("bench.request", pidBench, tidSender+r.Sender, start.Add(r.Released), start.Add(r.Done), map[string]any{"id": r.ID, "miss": r.Miss})
		if r.Sent > r.Released {
			tr.span("bench.send_wait", pidBench, tidSender+r.Sender, start.Add(r.Released), sent, nil)
		}
		for _, sp := range doc.Spans {
			args := map[string]any{"id": r.ID}
			for k, v := range sp.Attrs {
				args[k] = v
			}
			tr.add(chromeEvent{Name: sp.Name, Ph: "X", Ts: us(sent.Sub(tr.t0)) + float64(sp.StartUs), Dur: float64(sp.DurUs),
				Pid: pidNode0, Tid: sp.TID, Args: args})
		}
	}
	return s, nil
}

// fold adds one request's spans and returns why they do not tile ("" when
// they do). A child is clipped to its parent before self times are taken:
// sched.queued starts at enqueue, a few µs before the requester opens
// sched.wait, and that sliver is the submitter's own time. Span bounds are
// whole µs, so edges may disagree by 1µs.
func (s *spanStats) fold(spans []telemetry.Span) string {
	byName := map[string]telemetry.Span{}
	for _, sp := range spans {
		if _, dup := byName[sp.Name]; dup {
			return "duplicate span " + sp.Name
		}
		byName[sp.Name] = sp
	}
	if _, found := byName["http.request"]; !found {
		return "no http.request span"
	}
	children := map[string][]telemetry.Span{}
	for _, sp := range spans {
		if sp.Name == "http.request" {
			continue
		}
		p, known := spanParent[sp.Name]
		if !known {
			return "unknown span " + sp.Name
		}
		if _, found := byName[p]; !found {
			p = "http.request"
		}
		children[p] = append(children[p], sp)
	}
	const slack = 1
	clipped := map[string][2]int64{"http.request": {byName["http.request"].StartUs, byName["http.request"].End()}}
	self := map[string]int64{}
	var walk func(name string) string
	walk = func(name string) string {
		pb := clipped[name]
		kids := children[name]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUs < kids[j].StartUs })
		self[name] = pb[1] - pb[0]
		prevEnd := pb[0]
		for _, k := range kids {
			lo, hi := max(k.StartUs, pb[0]), min(k.End(), pb[1])
			if hi < lo-slack {
				return fmt.Sprintf("%s [%d,%d] lies outside %s [%d,%d]", k.Name, k.StartUs, k.End(), name, pb[0], pb[1])
			}
			if lo < prevEnd-slack {
				return fmt.Sprintf("%s overlaps a sibling inside %s", k.Name, name)
			}
			hi = max(hi, lo)
			clipped[k.Name] = [2]int64{lo, hi}
			self[name] -= hi - lo
			prevEnd = hi
			if msg := walk(k.Name); msg != "" {
				return msg
			}
		}
		return ""
	}
	if msg := walk("http.request"); msg != "" {
		return msg
	}
	for name, v := range self {
		s.self[name] = append(s.self[name], float64(max(v, 0)))
		s.dur[name] = append(s.dur[name], float64(byName[name].DurUs))
	}
	return ""
}
