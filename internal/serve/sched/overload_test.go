package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
)

// holdWorker parks every popped job at the test hook until release is
// called, so tests can build queue state deterministically behind the
// held workers. held closes when the first job reaches the hook; onPop,
// when non-nil, sees each job's spec as it arrives there.
//
// holdWorker owns s's shutdown: on every exit path of the test, a failed
// assertion included, it releases the workers and then drains s. A test
// that deferred Drain itself would hang on the parked worker instead of
// failing.
func holdWorker(t *testing.T, s *Sched, onPop func(experiments.RunSpec)) (held <-chan struct{}, release func()) {
	h := make(chan struct{})
	r := make(chan struct{})
	var heldOnce, releaseOnce sync.Once
	s.testHookBeforeRun = func(sp experiments.RunSpec) {
		if onPop != nil {
			onPop(sp)
		}
		heldOnce.Do(func() { close(h) })
		<-r
	}
	release = func() { releaseOnce.Do(func() { close(r) }) }
	t.Cleanup(func() {
		release()
		s.Drain(context.Background())
	})
	return h, release
}

// seedCost plants a run-time estimate for a model, bypassing the EWMA
// warm-up — the deterministic stand-in for "this model has been observed".
func seedCost(s *Sched, id config.ModelID, est time.Duration) {
	s.mu.Lock()
	s.cost.observe(config.Get(id), est)
	s.mu.Unlock()
}

// TestAdmissionShedsBatchBeforeInteractive pins the shed ordering: at the
// same load, batch (gated at 80% of the limit) bounces while interactive
// still admits, and each shed carries a usable Retry-After hint.
func TestAdmissionShedsBatchBeforeInteractive(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 16, Cache: newCache(t), Pool: core.NewPool()})
	held, release := holdWorker(t, s, nil)

	go func() { s.Submit(context.Background(), spec(t, config.N, "gzip", 5000)) }()
	<-held

	// Load is 1 (the held run). Limit 2: interactive load+1=2 <= 2 admits;
	// batch gates at 1.6 and sheds.
	s.SetAdmitLimit(2)
	_, _, err := s.SubmitBatch(context.Background(), spec(t, config.N, "swim", 5000))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("batch err = %v, want ErrShed", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("batch err %T does not unwrap to *ShedError", err)
	}
	if shed.Class != Batch {
		t.Fatalf("shed class = %v, want Batch", shed.Class)
	}
	if shed.RetryAfter < 100*time.Millisecond || shed.RetryAfter > 5*time.Second {
		t.Fatalf("RetryAfter = %v, want within [100ms, 5s]", shed.RetryAfter)
	}

	// Interactive still fits under the same limit — it must enqueue.
	errs := make(chan error, 1)
	go func() {
		_, _, err := s.Submit(context.Background(), spec(t, config.N, "swim", 5000))
		errs <- err
	}()
	waitFor(t, func() bool { return s.Stats().InteractiveDepth == 1 })

	// Load is now 2; the next interactive submit exceeds the limit and sheds.
	_, _, err = s.Submit(context.Background(), spec(t, config.N, "gcc", 5000))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("interactive err = %v, want ErrShed once over the limit", err)
	}
	if !errors.As(err, &shed) || shed.Class != Interactive {
		t.Fatalf("shed = %+v, want interactive class", shed)
	}

	st := s.Stats()
	if st.ShedBatch != 1 || st.ShedInteractive != 1 {
		t.Fatalf("sheds = %d batch / %d interactive, want 1 / 1", st.ShedBatch, st.ShedInteractive)
	}
	release()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionProperty: admission is the one load gate, whatever the
// fleet and queue sizes and the class mix. With every worker held, random
// interactive and batch submits of distinct specs either enqueue or shed
// with a Retry-After hint, and running + queued never exceeds
// QueueCap + Workers.
func TestAdmissionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 16; trial++ {
		workers, queueCap := 1+rng.Intn(4), 1+rng.Intn(8)
		pris := make([]Priority, 2*(queueCap+workers)+4)
		for i := range pris {
			pris[i] = Priority(rng.Intn(2))
		}
		t.Run(fmt.Sprintf("w%d_q%d_%d", workers, queueCap, trial), func(t *testing.T) {
			s := New(Config{Workers: workers, QueueCap: queueCap, Pool: core.NewPool()})
			holdWorker(t, s, nil)
			// Cancelled before the workers are released: every job is then
			// abandoned at the hook, so nothing simulates.
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)

			accepted, shed := 0, 0
			for i, pri := range pris {
				sp := spec(t, config.N, "gzip", 1000+i)
				errs := make(chan error, 1)
				go func() {
					_, _, err := s.submit(ctx, sp, pri)
					errs <- err
				}()
				waitFor(t, func() bool { return s.Stats().Submitted == uint64(i+1) })
				if s.Stats().Enqueued == uint64(accepted+1) {
					accepted++
					// Let idle workers pop, so the queue state is settled.
					waitFor(t, func() bool { return s.Stats().Running == min(workers, accepted) })
				} else {
					err := <-errs
					var se *ShedError
					if !errors.As(err, &se) || se.RetryAfter < 100*time.Millisecond {
						t.Fatalf("submit %d (%s): err = %v, want a *ShedError with a Retry-After of at least 100ms", i, pri, err)
					}
					shed++
				}
				st := s.Stats()
				if load := st.Running + st.InteractiveDepth + st.BatchDepth; load > queueCap+workers {
					t.Fatalf("submit %d: running + queued = %d, above QueueCap + Workers = %d", i, load, queueCap+workers)
				}
			}
			if shed == 0 {
				t.Fatalf("%d submits against a bound of %d shed none", len(pris), queueCap+workers)
			}
		})
	}
}

// TestDeadlineUnmeetableFastFails: a submit whose remaining budget is below
// the cost model's estimate must fail at the gate, not simulate for nobody.
func TestDeadlineUnmeetableFastFails(t *testing.T) {
	s := New(Config{Workers: 1, Cache: newCache(t), Pool: core.NewPool()})
	defer s.Drain(context.Background())

	seedCost(s, config.N, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err := s.Submit(ctx, spec(t, config.N, "gzip", 5000))
	if !errors.Is(err, ErrDeadlineUnmeetable) {
		t.Fatalf("err = %v, want ErrDeadlineUnmeetable", err)
	}
	if st := s.Stats(); st.DeadlineRejected != 1 || st.Completed != 0 {
		t.Fatalf("stats = %+v, want 1 deadline-rejected and 0 completed", st)
	}

	// An unobserved model estimates 0 and must admit under any deadline.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if _, _, err := s.Submit(ctx2, spec(t, config.W, "gzip", 5000)); err != nil {
		t.Fatalf("unobserved model rejected: %v", err)
	}
}

// TestDeadlineEvictsQueuedJob: a queued job admitted on an unknown cost but
// whose deadline turns unmeetable before a worker pops it is evicted with
// context.DeadlineExceeded instead of simulated.
func TestDeadlineEvictsQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, Cache: newCache(t), Pool: core.NewPool()})
	held, release := holdWorker(t, s, nil)

	go func() { s.Submit(context.Background(), spec(t, config.N, "gzip", 5000)) }()
	<-held

	// Admitted while config.W is unobserved (estimate 0); the far deadline
	// keeps the waiter alive so eviction — not abandonment — must fire.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	errs := make(chan error, 1)
	go func() {
		_, _, err := s.Submit(ctx, spec(t, config.W, "swim", 5000))
		errs <- err
	}()
	waitFor(t, func() bool { return s.Stats().InteractiveDepth == 1 })

	seedCost(s, config.W, 2*time.Hour) // now + 2h can never beat now + 1h
	release()
	if err := <-errs; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitFor(t, func() bool { return s.Stats().DeadlineEvicted == 1 })
	if st := s.Stats(); st.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (the evicted job must not simulate)", st.Completed)
	}
}

// TestDrainUnderLoad hammers Submit from many goroutines while Drain runs
// concurrently: no call may deadlock, every accepted job must return a
// result, and every rejection must be one of the published sentinels.
// The table covers tight and roomy scheduler shapes; run under -race.
func TestDrainUnderLoad(t *testing.T) {
	cases := []struct {
		name                               string
		workers, queueCap, submitters, per int
	}{
		{"tight", 1, 2, 4, 8},
		{"roomy", 4, 16, 8, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: tc.workers, QueueCap: tc.queueCap, Cache: newCache(t), Pool: core.NewPool()})
			specs := []experiments.RunSpec{
				spec(t, config.N, "gzip", 2000),
				spec(t, config.TON, "swim", 2000),
				spec(t, config.W, "gcc", 2000),
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < tc.submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					for i := 0; i < tc.per; i++ {
						res, _, err := s.Submit(context.Background(), specs[(g+i)%len(specs)])
						switch {
						case err == nil:
							if res == nil {
								t.Error("accepted submit returned nil result")
							}
						case errors.Is(err, ErrDraining),
							errors.Is(err, ErrShed):
							// Published rejection sentinels — fine under drain.
						default:
							t.Errorf("unexpected submit error: %v", err)
						}
					}
				}(g)
			}
			close(start)

			dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(dctx); err != nil {
				t.Fatalf("drain did not complete under load: %v", err)
			}
			wg.Wait()

			st := s.Stats()
			if st.InteractiveDepth != 0 || st.BatchDepth != 0 {
				t.Fatalf("queues not empty after drain: %+v", st)
			}
			// Every enqueued flight must have resolved one way or another.
			if st.Enqueued < st.Completed {
				t.Fatalf("completed %d exceeds enqueued %d", st.Completed, st.Enqueued)
			}
		})
	}
}
