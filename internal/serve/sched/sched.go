// Package sched is the serving layer's job scheduler: it turns incoming
// RunSpecs into simulation work on a pooled-machine worker fleet, with
//
//   - content-addressed fast path: specs already resident in the result
//     cache return without queueing;
//   - singleflight deduplication: concurrent identical specs (same digest)
//     share one execution — the hallmark of a thundering-herd matrix
//     workload where many clients ask for the same 44×7 cells;
//   - two priority classes: interactive (single-cell, latency-sensitive)
//     jobs always pop before batch (matrix fan-out) jobs; each class pops
//     in FIFO order;
//   - one admission gate: an AIMD limiter over total load (running +
//     queued), capped at QueueCap + Workers and fed by observed interactive
//     queue waits vs. a target, sheds work (*ShedError → 429 + Retry-After
//     upstream) instead of buffering it — batch sheds before interactive
//     (limiter.go);
//   - per-caller context cancellation: a waiter that gives up stops
//     waiting immediately, and a queued job whose every waiter has gone
//     away is abandoned without simulating;
//   - deadline awareness: a submit whose remaining ctx deadline is below
//     the cost model's run-time estimate fast-fails with
//     ErrDeadlineUnmeetable, and a queued job whose deadline lapses before
//     a worker pops it is evicted instead of simulated for nobody.
//
// Telemetry: every Submit resolves to a Disposition (cache hit,
// singleflight dedup, exact simulation) that the HTTP layer
// splits its request metrics by; queue waits land in per-class registry
// histograms; and a request trace travelling in the context gains spans
// for the queue residency, machine checkout, the run itself and the cache
// write-back. Stats counters follow a strict no-torn-reads discipline:
// each submit outcome increments Submitted *and* its outcome counter
// inside one critical section, so any Stats() snapshot has Submitted equal
// to the exact sum of CacheHits, Deduped, Enqueued, DrainRejected,
// ShedInteractive, ShedBatch and DeadlineRejected (pinned by
// TestStatsNeverTorn under the race detector).
package sched

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"time"

	"parrot/internal/chaos"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/cache"
	"parrot/internal/telemetry"
)

// Priority selects the queue class of a job.
type Priority uint8

// Priority classes, highest first.
const (
	Interactive Priority = iota
	Batch
)

// String returns the queue-class label used in metrics and spans.
func (p Priority) String() string {
	if p == Interactive {
		return "interactive"
	}
	return "batch"
}

// Disposition reports how a Submit was satisfied.
type Disposition uint8

// Dispositions, in the order a submit tries them.
const (
	DispCacheHit Disposition = iota // served from the result cache without queueing
	DispDeduped                     // joined an in-flight identical spec (singleflight)
	DispComputed                    // simulated on the exact cycle engine
)

// String returns the disposition label used in metrics, spans and wire
// responses: "hit", "dedup", "exact".
func (d Disposition) String() string {
	switch d {
	case DispCacheHit:
		return "hit"
	case DispDeduped:
		return "dedup"
	default:
		return "exact"
	}
}

// Cached reports whether the result came from the cache without touching
// the worker fleet.
func (d Disposition) Cached() bool { return d == DispCacheHit }

// ErrDraining is Submit's rejection once Drain has begun.
var ErrDraining = errors.New("sched: draining")

// Config parameterizes a scheduler.
type Config struct {
	// Workers is the fleet size (<=0 = GOMAXPROCS).
	Workers int
	// QueueCap bounds the queued jobs (<=0 = 4096): admission caps
	// running + queued at QueueCap + Workers.
	QueueCap int
	// Cache, when non-nil, front-ends every submit and receives every
	// computed result.
	Cache *cache.Cache
	// Pool supplies machines (nil = core.DefaultPool). Workers hold one
	// machine per distinct model locally and return them on shutdown.
	Pool *core.Pool
	// Registry, when non-nil, receives the scheduler's service metrics:
	// per-class queue-wait histograms, per-run simulation totals, and a
	// scrape-time collector emitting every Stats counter from one
	// coherent snapshot.
	Registry *telemetry.Registry
	// Log, when non-nil, receives structured events (abandoned jobs,
	// drain lifecycle).
	Log *slog.Logger
	// AdmitTarget is the interactive queue-wait target feeding the AIMD
	// admission limiter (<=0 = 250ms). Waits above it shrink the
	// concurrency limit multiplicatively; waits below grow it additively.
	AdmitTarget time.Duration
	// Now overrides the scheduler's clock (nil = time.Now) — the fake-clock
	// seam the drain-under-load and limiter tests use.
	Now func() time.Time
	// Chaos, when non-nil, arms the "sched.run" injection site: extra
	// latency (inside the busy window, so the cost model sees it) and
	// fault injection around each simulation run.
	Chaos *chaos.Injector
}

// Stats counts scheduler traffic. At any instant,
// Submitted == CacheHits + Deduped + Enqueued + DrainRejected
// + ShedInteractive + ShedBatch + DeadlineRejected.
type Stats struct {
	Submitted        uint64 // Submit calls
	CacheHits        uint64 // served from cache without queueing
	Deduped          uint64 // joined an in-flight identical spec
	Enqueued         uint64 // entered a queue
	DrainRejected    uint64 // bounced because the scheduler is draining
	ShedInteractive  uint64 // interactive jobs bounced by admission control
	ShedBatch        uint64 // batch jobs bounced by admission control
	DeadlineRejected uint64 // fast-failed: remaining deadline below cost estimate
	Completed        uint64 // simulations actually executed
	Abandoned        uint64 // queued jobs dropped because every waiter left
	DeadlineEvicted  uint64 // queued jobs evicted after their deadline lapsed

	SimInsts  uint64        // dynamic instructions simulated (measured window)
	SimCycles uint64        // simulated cycles across completed runs
	DynEnergy float64       // dynamic energy total across completed runs
	BusyTime  time.Duration // cumulative worker time spent simulating

	Running          int // workers currently simulating
	InteractiveDepth int
	BatchDepth       int
	Workers          int

	// AdmitLimit is the admission limiter's current concurrency limit.
	AdmitLimit float64
	// OldestInteractive / OldestBatch are the queue head ages (zero when
	// the queue is empty) — the queue-age signal overload dashboards watch.
	OldestInteractive time.Duration
	OldestBatch       time.Duration
}

// SimMIPS returns simulated measured instructions per busy-second, in
// millions — the fleet's aggregate throughput.
func (s Stats) SimMIPS() float64 {
	if s.BusyTime <= 0 {
		return 0
	}
	return float64(s.SimInsts) / s.BusyTime.Seconds() / 1e6
}

// flight is one in-flight digest: every concurrent waiter of the same spec
// blocks on done.
type flight struct {
	done    chan struct{}
	res     *core.Result
	err     error
	waiters int // live waiters; 0 allows abandonment while queued
}

// job is one queued unit of work.
type job struct {
	spec       experiments.RunSpec
	digest     string
	fl         *flight
	pri        Priority
	tr         *telemetry.Trace // first waiter's request trace (may be nil)
	enqueuedAt time.Time
	popAt      time.Time // set when a worker takes the job
	deadline   time.Time // first waiter's ctx deadline (zero = none)
}

// Sched dispatches RunSpecs onto a worker fleet. All methods are safe for
// concurrent use.
type Sched struct {
	cfg      Config
	pool     *core.Pool
	log      *slog.Logger // nil = silent
	mu       sync.Mutex
	cond     *sync.Cond
	qi, qb   []*job // interactive / batch FIFOs
	inflight map[string]*flight
	draining bool
	notReady bool // prewarm still running: serve, but tell peers not to route here
	stats    Stats
	wg       sync.WaitGroup
	limiter  *limiter   // adaptive admission control (guarded by mu)
	cost     *costModel // per-model run-time EWMA (guarded by mu)
	now      func() time.Time

	// Registry instruments (nil when no registry: all no-ops).
	queueWait [2]*telemetry.Histogram // per priority class
	runsTotal *telemetry.Counter
	simInsts  *telemetry.Counter
	simCycles *telemetry.Counter
	dynEnergy *telemetry.Counter

	// testHookBeforeRun, when set, runs on the worker goroutine after a job
	// is popped and before it simulates — the seam the dedup/priority tests
	// use to hold a worker busy deterministically.
	testHookBeforeRun func(spec experiments.RunSpec)
}

// New builds a scheduler and starts its worker fleet.
func New(cfg Config) *Sched {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	s := &Sched{
		cfg:      cfg,
		pool:     cfg.Pool,
		inflight: make(map[string]*flight),
	}
	if cfg.Log != nil {
		s.log = cfg.Log.With("component", "sched")
	}
	if s.pool == nil {
		s.pool = core.DefaultPool
	}
	s.now = cfg.Now
	if s.now == nil {
		s.now = time.Now
	}
	s.limiter = newLimiter(cfg.AdmitTarget, cfg.Workers, cfg.QueueCap, s.now())
	s.cost = newCostModel()
	s.cond = sync.NewCond(&s.mu)
	s.stats.Workers = cfg.Workers

	// Registry wiring: event-time instruments plus one scrape-time
	// collector over a single Stats snapshot. Everything is nil-safe, so
	// an unconfigured registry costs one nil check per event.
	reg := cfg.Registry
	waitBounds := []float64{0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}
	for _, pri := range []Priority{Interactive, Batch} {
		s.queueWait[pri] = reg.Histogram("parrot_queue_wait_seconds",
			"Time jobs spend queued before a worker pops them, by priority class.",
			waitBounds, "class", pri.String())
	}
	s.runsTotal = reg.Counter("parrot_sim_runs_total",
		"Simulations completed by the worker fleet.")
	s.simInsts = reg.Counter("parrot_sim_insts_total",
		"Dynamic instructions simulated by the worker fleet (measured windows).")
	s.simCycles = reg.Counter("parrot_sim_cycles_total",
		"Cycles simulated by the worker fleet.")
	s.dynEnergy = reg.Counter("parrot_sim_energy_dyn_total",
		"Dynamic energy accumulated across completed runs (model units).")
	reg.RegisterCollector(s.collect)

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// collect emits every Stats-derived series from one snapshot — a single
// lock pass, so a scrape never mixes counters from different instants.
func (s *Sched) collect(emit telemetry.Emit) {
	st := s.Stats()
	emit("parrot_sched_submitted_total", "counter", "Submit calls.", float64(st.Submitted))
	emit("parrot_sched_outcomes_total", "counter", "Submit outcomes (Submitted = sum over outcomes).",
		float64(st.CacheHits), "outcome", "cache_hit")
	emit("parrot_sched_outcomes_total", "counter", "Submit outcomes (Submitted = sum over outcomes).",
		float64(st.Deduped), "outcome", "deduped")
	emit("parrot_sched_outcomes_total", "counter", "Submit outcomes (Submitted = sum over outcomes).",
		float64(st.Enqueued), "outcome", "enqueued")
	emit("parrot_sched_outcomes_total", "counter", "Submit outcomes (Submitted = sum over outcomes).",
		float64(st.DrainRejected), "outcome", "drain_rejected")
	emit("parrot_sched_outcomes_total", "counter", "Submit outcomes (Submitted = sum over outcomes).",
		float64(st.ShedInteractive), "outcome", "shed_interactive")
	emit("parrot_sched_outcomes_total", "counter", "Submit outcomes (Submitted = sum over outcomes).",
		float64(st.ShedBatch), "outcome", "shed_batch")
	emit("parrot_sched_outcomes_total", "counter", "Submit outcomes (Submitted = sum over outcomes).",
		float64(st.DeadlineRejected), "outcome", "deadline_rejected")
	emit("parrot_shed_total", "counter", "Jobs bounced by adaptive admission control, by class.",
		float64(st.ShedInteractive), "class", "interactive")
	emit("parrot_shed_total", "counter", "Jobs bounced by adaptive admission control, by class.",
		float64(st.ShedBatch), "class", "batch")
	emit("parrot_deadline_rejected_total", "counter",
		"Submits fast-failed because the remaining deadline was below the cost estimate.",
		float64(st.DeadlineRejected))
	emit("parrot_deadline_evicted_total", "counter",
		"Queued jobs evicted at pop time after their deadline lapsed.",
		float64(st.DeadlineEvicted))
	emit("parrot_admit_limit", "gauge",
		"Adaptive admission limit (jobs running + queued).", st.AdmitLimit)
	emit("parrot_queue_age_seconds", "gauge", "Age of the queue head, by priority class.",
		st.OldestInteractive.Seconds(), "class", "interactive")
	emit("parrot_queue_age_seconds", "gauge", "Age of the queue head, by priority class.",
		st.OldestBatch.Seconds(), "class", "batch")
	emit("parrot_sched_completed_total", "counter", "Simulations executed.", float64(st.Completed))
	emit("parrot_sched_abandoned_total", "counter", "Queued jobs dropped with no waiters.", float64(st.Abandoned))
	emit("parrot_sched_busy_seconds_total", "counter", "Cumulative worker time spent simulating.", st.BusyTime.Seconds())
	emit("parrot_sched_workers", "gauge", "Worker fleet size.", float64(st.Workers))
	emit("parrot_sched_running", "gauge", "Workers currently simulating.", float64(st.Running))
	emit("parrot_queue_depth", "gauge", "Jobs waiting in queue, by priority class.",
		float64(st.InteractiveDepth), "class", "interactive")
	emit("parrot_queue_depth", "gauge", "Jobs waiting in queue, by priority class.",
		float64(st.BatchDepth), "class", "batch")
	emit("parrot_sched_sim_mips", "gauge", "Fleet throughput: simulated Minsts per busy-second.", st.SimMIPS())
}

// Pool returns the machine pool backing the fleet.
func (s *Sched) Pool() *core.Pool { return s.pool }

// Submit resolves one spec: cache fast path, then singleflight join or
// enqueue. It blocks until the cell is available, the context is done, or
// the scheduler rejects the job. The Disposition reports how the result
// was obtained (cache hit, dedup join, exact simulation).
//
// Cancellation semantics: a caller whose ctx ends stops waiting
// immediately (the flight keeps running if other waiters remain, and a
// finished result still enters the cache). A job still queued when its
// last waiter leaves is abandoned without simulating.
func (s *Sched) Submit(ctx context.Context, spec experiments.RunSpec) (*core.Result, Disposition, error) {
	return s.submit(ctx, spec, Interactive)
}

// cacheProbedKey marks a context whose request has already probed the
// result cache (see WithCacheProbed).
type cacheProbedKey struct{}

// WithCacheProbed marks ctx as belonging to a request that has just probed
// the result cache's memory itself and missed. Submit then skips its cache
// fast path, so the request records one cache.get span, not two. A cell
// resident only on disk is then recomputed rather than promoted.
func WithCacheProbed(ctx context.Context) context.Context {
	return context.WithValue(ctx, cacheProbedKey{}, true)
}

// SubmitBatch is Submit on the batch (lower-priority) queue.
func (s *Sched) SubmitBatch(ctx context.Context, spec experiments.RunSpec) (*core.Result, Disposition, error) {
	return s.submit(ctx, spec, Batch)
}

func (s *Sched) submit(ctx context.Context, spec experiments.RunSpec, pri Priority) (res *core.Result, disp Disposition, err error) {
	spec = spec.Normalize()
	digest := spec.Digest()

	tr := telemetry.TraceFrom(ctx)
	sub := tr.StartSpan("sched.submit",
		telemetry.A("digest", shortDigest(digest)),
		telemetry.A("class", pri.String()))
	defer func() {
		if err != nil {
			sub.SetAttr("error", err.Error())
		} else {
			sub.SetAttr("disposition", disp.String())
		}
		sub.End()
	}()

	// Cache fast path (outside the scheduler lock: may touch disk). The
	// stats outcome lands in one critical section either way.
	if c := s.cfg.Cache; c != nil && ctx.Value(cacheProbedKey{}) == nil {
		if r, ok := c.GetCtx(ctx, digest); ok {
			s.mu.Lock()
			s.stats.Submitted++
			s.stats.CacheHits++
			s.mu.Unlock()
			return r, DispCacheHit, nil
		}
	}

	s.mu.Lock()
	if fl, ok := s.inflight[digest]; ok {
		fl.waiters++
		s.stats.Submitted++
		s.stats.Deduped++
		s.mu.Unlock()
		r, _, werr := s.wait(ctx, tr, fl)
		return r, DispDeduped, werr
	}
	if s.draining {
		s.stats.Submitted++
		s.stats.DrainRejected++
		s.mu.Unlock()
		return nil, DispComputed, ErrDraining
	}
	now := s.now()
	// Deadline feasibility: when the caller's remaining budget is already
	// below the cost model's estimate for this model, fail fast instead of
	// simulating work nobody will wait for. An unobserved model estimates
	// 0 and always admits.
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		if est := s.cost.estimate(spec.Model); est > 0 && deadline.Sub(now) < est {
			s.stats.Submitted++
			s.stats.DeadlineRejected++
			s.mu.Unlock()
			return nil, DispComputed, fmt.Errorf(
				"%w: %s remaining, %s estimated for model %s",
				ErrDeadlineUnmeetable, deadline.Sub(now).Round(time.Millisecond),
				est.Round(time.Millisecond), spec.Model.ID)
		}
	}
	// Adaptive admission, the one load gate: load counts everything a new
	// job would queue behind, and the limit never exceeds QueueCap +
	// Workers, so every rejection carries a Retry-After hint. Batch sheds
	// first (limiter.go).
	load := s.stats.Running + len(s.qi) + len(s.qb)
	if !s.limiter.admit(load, pri, now) {
		s.stats.Submitted++
		if pri == Interactive {
			s.stats.ShedInteractive++
		} else {
			s.stats.ShedBatch++
		}
		retry := s.cost.retryAfter(load, s.cfg.Workers)
		s.mu.Unlock()
		return nil, DispComputed, &ShedError{Class: pri, RetryAfter: retry}
	}
	fl := &flight{done: make(chan struct{}), waiters: 1}
	s.inflight[digest] = fl
	j := &job{
		spec: spec, digest: digest, fl: fl, pri: pri,
		tr: tr, enqueuedAt: now,
	}
	if hasDeadline {
		j.deadline = deadline
	}
	if pri == Interactive {
		s.qi = append(s.qi, j)
	} else {
		s.qb = append(s.qb, j)
	}
	s.stats.Submitted++
	s.stats.Enqueued++
	s.cond.Signal()
	s.mu.Unlock()
	return s.wait(ctx, tr, fl)
}

// wait blocks on the flight or the caller's context, whichever ends first.
func (s *Sched) wait(ctx context.Context, tr *telemetry.Trace, fl *flight) (*core.Result, Disposition, error) {
	sp := tr.StartSpan("sched.wait")
	defer sp.End()
	select {
	case <-fl.done:
		return fl.res, DispComputed, fl.err
	case <-ctx.Done():
		s.mu.Lock()
		fl.waiters--
		s.mu.Unlock()
		sp.SetAttr("error", ctx.Err().Error())
		return nil, DispComputed, ctx.Err()
	}
}

// next pops the next job: the interactive queue's head first, then the
// batch queue's. Pop order changes no machine work: a worker keeps one
// machine per model and Resets it before every run. Returns nil when the
// scheduler is draining and both queues are empty.
func (s *Sched) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var j *job
		if len(s.qi) > 0 {
			j = s.qi[0]
			s.qi = popFront(s.qi)
		} else if len(s.qb) > 0 {
			j = s.qb[0]
			s.qb = popFront(s.qb)
		} else {
			if s.draining {
				return nil
			}
			s.cond.Wait()
			continue
		}
		s.stats.Running++
		j.popAt = s.now()
		s.queueWait[j.pri].Observe(j.popAt.Sub(j.enqueuedAt).Seconds())
		j.tr.AddSpan("sched.queued", telemetry.TIDWorker, j.enqueuedAt, j.popAt,
			telemetry.A("class", j.pri.String()))
		return j
	}
}

func popFront(q []*job) []*job {
	copy(q, q[1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

// worker is one fleet member: it holds one machine per distinct model
// (drawn from the pool on first use, Reset between runs) and returns them
// all on shutdown.
func (s *Sched) worker() {
	defer s.wg.Done()
	local := make(map[config.Model]*core.Machine)
	defer func() {
		for _, m := range local {
			s.pool.Put(m)
		}
	}()
	for {
		j := s.next()
		if j == nil {
			return
		}
		if s.testHookBeforeRun != nil {
			s.testHookBeforeRun(j.spec)
		}

		// A queued job whose waiters all left is abandoned: nobody wants the
		// result and the cache gains little from speculative cells. A job
		// whose deadline lapsed (or will lapse before the cost-model estimate
		// completes) is evicted the same way — simulating it serves nobody.
		s.mu.Lock()
		abandoned := j.fl.waiters == 0
		evicted := false
		if abandoned {
			s.stats.Abandoned++
		} else if !j.deadline.IsZero() && !s.now().Add(s.cost.estimate(j.spec.Model)).Before(j.deadline) {
			evicted = true
			s.stats.DeadlineEvicted++
		}
		if abandoned || evicted {
			s.stats.Running--
			delete(s.inflight, j.digest)
			if evicted {
				j.fl.err = context.DeadlineExceeded
			} else {
				j.fl.err = context.Canceled
			}
			close(j.fl.done)
		}
		s.mu.Unlock()
		if abandoned || evicted {
			if s.log != nil {
				reason := "job abandoned"
				if evicted {
					reason = "job deadline evicted"
				}
				s.log.Debug(reason, "digest", shortDigest(j.digest),
					"model", string(j.spec.Model.ID), "app", j.spec.App.Name)
			}
			continue
		}

		m := local[j.spec.Model]
		pooled := m != nil
		if m == nil {
			m = s.pool.Get(j.spec.Model) // arrives reset
			local[j.spec.Model] = m
		} else {
			m.Reset()
		}
		gotM := s.now()
		j.tr.AddSpan("machine.checkout", telemetry.TIDWorker, j.popAt, gotM,
			telemetry.A("model", string(j.spec.Model.ID)),
			telemetry.A("pooled", strconv.FormatBool(pooled)))

		// Chaos site "sched.run": injected latency lands inside the busy
		// window (the cost model and deadline estimates must see it); an
		// injected fault fails the flight without simulating.
		if cerr := s.cfg.Chaos.Inject("sched.run", string(j.spec.Model.ID)+"/"+j.spec.App.Name); cerr != nil {
			s.mu.Lock()
			s.stats.Running--
			delete(s.inflight, j.digest)
			j.fl.err = cerr
			close(j.fl.done)
			s.mu.Unlock()
			continue
		}

		res := core.RunWarmOn(m, j.spec.App, j.spec.Insts)
		doneT := s.now()
		busy := doneT.Sub(gotM)

		// Per-run totals surface through the same RunSummary record the
		// matrix export and CLI -json outputs use.
		sum := experiments.Summarize(res, 0)
		s.simInsts.Add(float64(sum.Insts))
		s.simCycles.Add(float64(sum.Cycles))
		s.dynEnergy.Add(sum.DynEnergy)
		s.runsTotal.Inc()
		j.tr.AddSpan("sim.run", telemetry.TIDWorker, gotM, doneT,
			telemetry.A("model", string(j.spec.Model.ID)),
			telemetry.A("app", j.spec.App.Name),
			telemetry.A("insts", strconv.FormatUint(sum.Insts, 10)))

		if c := s.cfg.Cache; c != nil {
			// Disk write errors are non-fatal: the result is still returned
			// and memory-cached; the cache counts the error.
			_ = c.Put(j.digest, res)
			j.tr.AddSpan("cache.put", telemetry.TIDWorker, doneT, s.now(),
				telemetry.A("digest", shortDigest(j.digest)))
		}

		s.mu.Lock()
		s.stats.Completed++
		s.stats.SimInsts += res.Insts
		s.stats.SimCycles += res.Cycles
		s.stats.DynEnergy += res.DynEnergy
		s.stats.BusyTime += busy
		s.stats.Running--
		s.cost.observe(j.spec.Model, busy)
		if j.pri == Interactive {
			// Interactive queue wait is the admission limiter's control
			// signal; batch waits are the design working as intended.
			s.limiter.observe(j.popAt.Sub(j.enqueuedAt), s.now())
		}
		delete(s.inflight, j.digest)
		j.fl.res = res
		close(j.fl.done)
		s.mu.Unlock()
	}
}

// Drain stops accepting new jobs, lets queued and running work finish, and
// returns when the fleet has shut down or the context ends. Idempotent.
func (s *Sched) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.log != nil {
		s.log.Info("draining")
	}

	doneCh := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
		if s.log != nil {
			s.log.Info("drained")
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been initiated.
func (s *Sched) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SetReady flips the readiness gate. The daemon marks itself not-ready
// before a background pool prewarm and ready when it completes; unlike
// draining this never rejects work — it only steers /readyz so cluster
// peers route around a still-warming node.
func (s *Sched) SetReady(ready bool) {
	s.mu.Lock()
	s.notReady = !ready
	s.mu.Unlock()
}

// Ready reports whether this node should receive routed traffic: not
// draining and past any startup prewarm gate.
func (s *Sched) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining && !s.notReady
}

// Stats returns a snapshot of the counters, taken in one critical section
// — queue depths, completion counters and busy time all reflect the same
// instant.
func (s *Sched) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.InteractiveDepth = len(s.qi)
	st.BatchDepth = len(s.qb)
	now := s.now()
	// Apply any pending recovery drift so the exported limit reflects what
	// the next submit would actually see — otherwise a post-storm idle
	// daemon reports the clamped limit forever.
	s.limiter.recover(now)
	st.AdmitLimit = s.limiter.limit
	if len(s.qi) > 0 {
		st.OldestInteractive = now.Sub(s.qi[0].enqueuedAt)
	}
	if len(s.qb) > 0 {
		st.OldestBatch = now.Sub(s.qb[0].enqueuedAt)
	}
	return st
}

// SetAdmitLimit forces the admission limit — an operational override and
// the deterministic seam the overload tests use to provoke sheds without
// racing the AIMD feedback loop. The limit remains subject to recovery
// drift and AIMD feedback afterwards.
func (s *Sched) SetAdmitLimit(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limiter.limit = v
	s.limiter.lastDec = s.now() // hold recovery drift off for recoverWait
}

// shortDigest truncates a content address for span/log attributes.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
