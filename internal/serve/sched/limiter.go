package sched

import (
	"errors"
	"fmt"
	"time"

	"parrot/internal/config"
)

// Overload sentinels of Submit.
var (
	// ErrShed matches (via errors.Is) every *ShedError the adaptive
	// admission limiter returns.
	ErrShed = errors.New("sched: shed by admission control")
	// ErrDeadlineUnmeetable is returned at submit time when the caller's
	// remaining ctx deadline is below the cost-model estimate for the
	// spec's model — the job would be simulated for nobody.
	ErrDeadlineUnmeetable = errors.New("sched: deadline cannot be met")
)

// ShedError is the adaptive admission limiter's rejection: the job class
// that was bounced plus a back-off hint sized from the current load and
// the cost model's run-time estimate. The API layer surfaces it as
// 429 + Retry-After.
type ShedError struct {
	Class      Priority
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("sched: %s job shed by admission control (retry after %s)",
		e.Class, e.RetryAfter.Round(time.Millisecond))
}

// Is matches ErrShed.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// limiter is an AIMD concurrency limiter over total scheduler load
// (running + queued) fed by observed interactive queue waits vs. a target.
//
// Only interactive waits drive it: interactive latency is the SLO, while
// batch (matrix fan-out) jobs queueing deeply is the design working as
// intended. A pure batch workload therefore never lowers the limit: it
// sheds only at batchShare of max (QueueCap + Workers), the one load bound
// there is. The moment interactive traffic shows queue pressure, the limit
// multiplicatively collapses toward fleet capacity and batch admission
// (gated at batchShare of the limit) sheds first. Below-target waits grow
// the limit additively (+1), the classic AIMD sawtooth around achievable
// concurrency; once no decrease has fired for recoverAfter, the limit also
// drifts back toward max over ~10s so a storm's clamp does not outlive the
// storm.
//
// The limiter is guarded by the scheduler's own mutex — every method is
// called with s.mu held — and takes `now` explicitly so fake-clock tests
// are deterministic.
type limiter struct {
	target     time.Duration // interactive queue-wait target
	min, max   float64       // limit bounds
	batchShare float64       // batch admits only below batchShare × limit

	limit       float64
	lastDec     time.Time // last multiplicative decrease
	lastRecover time.Time // last recovery-drift evaluation
}

const (
	limiterDecFactor   = 0.8                    // multiplicative decrease
	limiterDecInterval = 100 * time.Millisecond // at most one decrease per interval
	limiterRecoverWait = time.Second            // quiet period before drifting up
)

// newLimiter bounds the limit to [workers+1, queueCap+workers] jobs.
func newLimiter(target time.Duration, workers, queueCap int, now time.Time) *limiter {
	if target <= 0 {
		target = 250 * time.Millisecond
	}
	min, max := float64(workers+1), float64(queueCap+workers)
	return &limiter{
		target:      target,
		min:         min,
		max:         max,
		batchShare:  0.8,
		limit:       max, // start permissive; pressure discovers capacity
		lastDec:     now,
		lastRecover: now,
	}
}

// admit decides whether a job of class pri may enter given the current
// load (running + queued, before this job).
func (l *limiter) admit(load int, pri Priority, now time.Time) bool {
	l.recover(now)
	lim := l.limit
	if pri == Batch {
		lim *= l.batchShare
	}
	return float64(load+1) <= lim
}

// observe feeds one completed interactive job's queue wait.
func (l *limiter) observe(wait time.Duration, now time.Time) {
	if wait > l.target {
		if now.Sub(l.lastDec) >= limiterDecInterval {
			l.limit *= limiterDecFactor
			if l.limit < l.min {
				l.limit = l.min
			}
			l.lastDec = now
		}
	} else if l.limit < l.max {
		l.limit++
		if l.limit > l.max {
			l.limit = l.max
		}
	}
	l.lastRecover = now
}

// recover drifts the limit back toward max when no overload signal has
// fired recently, so a clamped limit does not persist after traffic (and
// its latency observations) stop.
func (l *limiter) recover(now time.Time) {
	dt := now.Sub(l.lastRecover)
	l.lastRecover = now
	if dt <= 0 || l.limit >= l.max || now.Sub(l.lastDec) < limiterRecoverWait {
		return
	}
	l.limit += dt.Seconds() * l.max / 10
	if l.limit > l.max {
		l.limit = l.max
	}
}

// costModel tracks an EWMA of per-model run times (machine checkout
// through simulation, chaos latency included) plus an overall EWMA. The
// scheduler uses it to fast-fail submits whose deadline is already
// unmeetable, evict queued jobs whose deadline lapsed, and size
// Retry-After hints. Guarded by the scheduler's mutex.
type costModel struct {
	byModel map[config.Model]time.Duration
	overall time.Duration
}

const costAlpha = 0.3 // EWMA weight of the newest observation

func newCostModel() *costModel {
	return &costModel{byModel: make(map[config.Model]time.Duration)}
}

func ewma(old, v time.Duration) time.Duration {
	if old == 0 {
		return v
	}
	return old + time.Duration(costAlpha*float64(v-old))
}

func (c *costModel) observe(m config.Model, busy time.Duration) {
	c.byModel[m] = ewma(c.byModel[m], busy)
	c.overall = ewma(c.overall, busy)
}

// estimate returns the expected run time for a model, 0 when the model has
// never been observed (callers treat 0 as "don't know, admit").
func (c *costModel) estimate(m config.Model) time.Duration {
	return c.byModel[m]
}

// retryAfter sizes a shed back-off hint: the estimated time for the
// current backlog to drain through the fleet, clamped to [100ms, 5s].
func (c *costModel) retryAfter(load, workers int) time.Duration {
	est := c.overall
	if est <= 0 {
		est = 50 * time.Millisecond
	}
	if workers < 1 {
		workers = 1
	}
	d := est * time.Duration(1+load/workers)
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}
