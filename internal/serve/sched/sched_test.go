package sched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/cache"
	"parrot/internal/testutil"
	"parrot/internal/workload"
)

func spec(t *testing.T, modelID config.ModelID, app string, insts int) experiments.RunSpec {
	t.Helper()
	p, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	return experiments.RunSpec{Model: config.Get(modelID), App: p, Insts: insts}
}

func newCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{MemBudget: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSubmitComputesAndCaches(t *testing.T) {
	c := newCache(t)
	s := New(Config{Workers: 2, Cache: c, Pool: core.NewPool()})
	defer s.Drain(context.Background())

	sp := spec(t, config.TON, "gzip", 5000)
	res, disp, err := s.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if disp.Cached() {
		t.Fatal("first submit reported a cache hit")
	}
	if disp != DispComputed {
		t.Fatalf("first submit disposition = %v, want a simulation", disp)
	}
	if res == nil || res.Insts == 0 {
		t.Fatal("empty result")
	}
	// Second submit: cache fast path, bit-identical result.
	res2, disp2, err := s.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if disp2 != DispCacheHit {
		t.Fatalf("second submit disposition = %v, want DispCacheHit", disp2)
	}
	if experiments.ResultDigest(res2) != experiments.ResultDigest(res) {
		t.Fatal("cached result differs from computed result")
	}
	st := s.Stats()
	if st.Completed != 1 || st.CacheHits != 1 || st.Submitted != 2 {
		t.Fatalf("stats = %+v, want 1 completed / 1 cacheHit / 2 submitted", st)
	}
}

// TestSingleflightDedup holds the lone worker at the test hook while N
// concurrent submits of the same spec pile up: exactly one simulation must
// run and every waiter must get the identical result.
func TestSingleflightDedup(t *testing.T) {
	s := New(Config{Workers: 1, Cache: newCache(t), Pool: core.NewPool()})
	held, release := holdWorker(t, s, nil)

	sp := spec(t, config.N, "gzip", 5000)
	const waiters = 8
	type out struct {
		res *core.Result
		err error
	}
	results := make(chan out, waiters)
	var launched sync.WaitGroup
	launched.Add(1)
	go func() {
		launched.Done()
		r, _, err := s.Submit(context.Background(), sp)
		results <- out{r, err}
	}()
	launched.Wait()
	<-held // the first submit's job is on the worker, held at the hook

	for i := 1; i < waiters; i++ {
		go func() {
			r, _, err := s.Submit(context.Background(), sp)
			results <- out{r, err}
		}()
	}
	// All late submits must join the in-flight digest, not enqueue.
	var st Stats
	if !testutil.Await(func() bool { st = s.Stats(); return st.Deduped == waiters-1 }) {
		t.Fatalf("deduped = %d, want %d", st.Deduped, waiters-1)
	}
	release()

	var first *core.Result
	for i := 0; i < waiters; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if first == nil {
			first = o.res
		} else if o.res != first {
			t.Fatal("waiters observed different result pointers")
		}
	}
	st = s.Stats()
	if st.Completed != 1 {
		t.Fatalf("completed = %d, want exactly 1 simulation for %d submits", st.Completed, waiters)
	}
}

// TestInteractiveBeatsBatch queues one batch and one interactive job behind
// a held worker and checks the interactive job runs first.
func TestInteractiveBeatsBatch(t *testing.T) {
	s := New(Config{Workers: 1, Cache: newCache(t), Pool: core.NewPool()})
	var mu sync.Mutex
	var order []string
	held, release := holdWorker(t, s, func(sp experiments.RunSpec) {
		mu.Lock()
		order = append(order, string(sp.Model.ID)+"/"+sp.App.Name)
		mu.Unlock()
	})

	var wg sync.WaitGroup
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Error(err)
			}
		}()
	}
	// Occupy the worker with a filler job, then queue batch before
	// interactive while it is held.
	run(func() error {
		_, _, err := s.Submit(context.Background(), spec(t, config.W, "swim", 5000))
		return err
	})
	<-held
	run(func() error {
		_, _, err := s.SubmitBatch(context.Background(), spec(t, config.N, "gzip", 5000))
		return err
	})
	// Wait until the batch job is actually queued before the interactive one.
	waitFor(t, func() bool { return s.Stats().BatchDepth == 1 })
	run(func() error {
		_, _, err := s.Submit(context.Background(), spec(t, config.TN, "gcc", 5000))
		return err
	})
	waitFor(t, func() bool { return s.Stats().InteractiveDepth == 1 })
	release()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 {
		t.Fatalf("ran %d jobs, want 3 (%v)", len(order), order)
	}
	if order[1] != "TN/gcc" || order[2] != "N/gzip" {
		t.Fatalf("run order %v: interactive TN/gcc must precede batch N/gzip", order)
	}
}

// TestQueueFullRejects: with the queue at QueueCap behind a busy fleet,
// admission (capped at QueueCap + Workers) sheds the next job, and the
// shed carries a Retry-After hint.
func TestQueueFullRejects(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 1, Cache: newCache(t), Pool: core.NewPool()})
	held, release := holdWorker(t, s, nil)

	errs := make(chan error, 2)
	go func() {
		_, _, err := s.Submit(context.Background(), spec(t, config.N, "gzip", 5000))
		errs <- err
	}()
	<-held
	go func() {
		_, _, err := s.Submit(context.Background(), spec(t, config.N, "swim", 5000))
		errs <- err
	}()
	waitFor(t, func() bool { return s.Stats().InteractiveDepth == 1 })

	// Queue is at capacity: a third distinct spec must bounce immediately.
	_, _, err := s.Submit(context.Background(), spec(t, config.N, "gcc", 5000))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.RetryAfter < 100*time.Millisecond {
		t.Fatalf("err = %v, want a *ShedError with a Retry-After of at least 100ms", err)
	}
	if st := s.Stats(); st.ShedInteractive != 1 {
		t.Fatalf("shed = %d, want 1", st.ShedInteractive)
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestContextCancelAbandonsQueuedJob: a queued job whose only waiter leaves
// is abandoned by the worker without simulating.
func TestContextCancelAbandonsQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, Cache: newCache(t), Pool: core.NewPool()})
	held, release := holdWorker(t, s, nil)

	go func() { s.Submit(context.Background(), spec(t, config.N, "gzip", 5000)) }()
	<-held

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, _, err := s.Submit(ctx, spec(t, config.N, "swim", 5000))
		errs <- err
	}()
	waitFor(t, func() bool { return s.Stats().InteractiveDepth == 1 })
	cancel()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	release()
	waitFor(t, func() bool { return s.Stats().Abandoned == 1 })
	if st := s.Stats(); st.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (the abandoned job must not simulate)", st.Completed)
	}
}

func TestDrainRejectsNewAndFinishesQueued(t *testing.T) {
	s := New(Config{Workers: 1, Cache: newCache(t), Pool: core.NewPool()})
	sp := spec(t, config.TON, "gzip", 5000)
	if _, _, err := s.Submit(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	// A cold spec (never computed, so not cache-served) must be rejected.
	cold := spec(t, config.N, "gcc", 5000)
	if _, _, err := s.Submit(context.Background(), cold); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

func TestDrainStillServesCache(t *testing.T) {
	c := newCache(t)
	s := New(Config{Workers: 1, Cache: c, Pool: core.NewPool()})
	sp := spec(t, config.TON, "swim", 5000)
	res, _, err := s.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, disp, err := s.Submit(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if !disp.Cached() {
		t.Fatal("drained scheduler did not serve the cached cell")
	}
	if experiments.ResultDigest(got) != experiments.ResultDigest(res) {
		t.Fatal("cached result differs after drain")
	}
}

// TestStatsNeverTorn hammers Submit from many goroutines while a scraper
// continuously snapshots Stats, asserting the submit-outcome invariant
//
//	Submitted == CacheHits + Deduped + Enqueued + DrainRejected
//	             + ShedInteractive + ShedBatch + DeadlineRejected
//
// on every snapshot. Before the single-critical-section fix, Submitted was
// incremented in a separate lock acquisition from its outcome counter, so
// a concurrent scrape could observe a submit without its outcome — exactly
// the torn read /metricsz must never serve. Run under -race this also
// exercises every instrument the scheduler publishes.
func TestStatsNeverTorn(t *testing.T) {
	s := New(Config{Workers: 4, QueueCap: 8, Cache: newCache(t), Pool: core.NewPool()})
	defer s.Drain(context.Background())

	stop := make(chan struct{})
	var scrapes, torn int
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			scrapes++
			sum := st.CacheHits + st.Deduped + st.Enqueued + st.DrainRejected +
				st.ShedInteractive + st.ShedBatch + st.DeadlineRejected
			if st.Submitted != sum {
				torn++
				t.Errorf("torn stats: submitted=%d != hits=%d + deduped=%d + enqueued=%d + drainRejected=%d + shedI=%d + shedB=%d + deadline=%d",
					st.Submitted, st.CacheHits, st.Deduped, st.Enqueued, st.DrainRejected,
					st.ShedInteractive, st.ShedBatch, st.DeadlineRejected)
				return
			}
		}
	}()

	// Mixed traffic: few distinct specs (maximizes cache hits and dedup
	// joins), a tiny queue (forces sheds), both priority classes.
	specs := []experiments.RunSpec{
		spec(t, config.N, "gzip", 2000),
		spec(t, config.N, "swim", 2000),
		spec(t, config.TON, "gzip", 2000),
	}
	const submitters, perSubmitter = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				sp := specs[(g+i)%len(specs)]
				if i%2 == 0 {
					s.Submit(context.Background(), sp) //nolint:errcheck — sheds are expected traffic here
				} else {
					s.SubmitBatch(context.Background(), sp)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scraperWG.Wait()

	if torn != 0 {
		t.Fatalf("%d torn snapshots out of %d scrapes", torn, scrapes)
	}
	st := s.Stats()
	if st.Submitted != uint64(submitters*perSubmitter) {
		t.Fatalf("submitted = %d, want %d", st.Submitted, submitters*perSubmitter)
	}
	if st.CacheHits == 0 || st.Completed == 0 {
		t.Fatalf("traffic mix degenerate: %+v", st)
	}
}

// TestDispositionLabels pins the wire labels the metrics, spans and
// responses share.
func TestDispositionLabels(t *testing.T) {
	for d, want := range map[Disposition]string{
		DispCacheHit: "hit", DispDeduped: "dedup", DispComputed: "exact",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), want)
		}
	}
	if !DispCacheHit.Cached() || DispDeduped.Cached() || DispComputed.Cached() {
		t.Error("Cached() wrong for some disposition")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	if !testutil.Await(cond) {
		t.Fatal("condition not reached in 5s")
	}
}
