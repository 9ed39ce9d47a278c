// Package loadgen is the serving layer's load-test harness: it replays
// open- or closed-loop request streams of single-cell runs against a
// parrotd instance and reports latency percentiles split by cache
// disposition. Its reason to exist is the acceptance proof of the serving
// layer — against a warm daemon, a repeated 44×7 matrix must be a ≥95%-hit
// workload with sub-5ms cached-cell p99.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"parrot/internal/metrics"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/workload"
)

// allAppNames returns the full benchmark roster's names.
func allAppNames() []string {
	apps := workload.Apps()
	out := make([]string, len(apps))
	for i, p := range apps {
		out[i] = p.Name
	}
	return out
}

// Config parameterizes one load run.
type Config struct {
	Client *client.Client
	// Clients, when non-empty, supersedes Client: requests round-robin over
	// the listed nodes, spreading coordinator load across a cluster (each
	// node forwards non-owned digests to their ring owner itself).
	Clients []*client.Client

	// Mode is "closed" (Concurrency workers issuing back-to-back) or
	// "open" (Poisson-free fixed-rate arrivals at RateHz, each served on
	// its own goroutine — latency includes queueing, as production traffic
	// would observe).
	Mode string
	// Concurrency is the closed-loop worker count (<=0 = 4). In open-loop
	// mode it bounds in-flight requests (<=0 = 512).
	Concurrency int
	// RateHz is the open-loop arrival rate (<=0 = 50/s).
	RateHz float64

	// Requests stops after this many issued requests (<=0: Duration rules).
	Requests int
	// Duration stops after this wall time (<=0 = 10s when Requests unset).
	Duration time.Duration

	// Models/Apps name the cell set cycled through (empty = all seven
	// models / full 44-app roster — the paper's matrix). The stream walks a
	// deterministic Seed-shuffled permutation of the cells, repeating.
	Models []string
	Apps   []string
	Insts  int
	Seed   int64

	// BatchFraction sends this share of requests on the batch priority
	// class (0 = all interactive). Overload runs mix classes to prove
	// batch sheds before interactive.
	BatchFraction float64
	// Distinct, when > 0, churns each request's instruction budget through
	// Distinct variants (Insts, Insts+1, …), defeating the result cache —
	// a cold storm that forces real simulation work under overload.
	Distinct int
	// DeadlineMs stamps each request with a per-request ctx deadline, so
	// the X-Parrot-Deadline propagation path is exercised (0 = none).
	DeadlineMs int
}

// Percentiles summarizes a latency population (microseconds).
type Percentiles struct {
	N    int     `json:"n"`
	Mean float64 `json:"meanUs"`
	P50  float64 `json:"p50Us"`
	P90  float64 `json:"p90Us"`
	P99  float64 `json:"p99Us"`
	P999 float64 `json:"p999Us"`
	Max  float64 `json:"maxUs"`
}

// Report is the outcome of one load run.
type Report struct {
	Mode        string  `json:"mode"`
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	CacheHits   int     `json:"cacheHits"`
	HitRate     float64 `json:"hitRate"`
	ElapsedMs   int64   `json:"elapsedMs"`
	Throughput  float64 `json:"requestsPerSec"`
	DistinctMod int     `json:"distinctModels"`
	DistinctApp int     `json:"distinctApps"`

	// Overload accounting. Shed counts 429 rejections (they are not
	// Errors: a correct shed is the overload design working); ShedHintOK
	// counts sheds that carried a usable Retry-After hint — the smoke
	// test's shed-correctness gate is Shed == ShedHintOK. Server5xx counts
	// responses the overload design promises never to produce.
	Shed       int `json:"shed,omitempty"`
	ShedHintOK int `json:"shedHintOk,omitempty"`
	Server5xx  int `json:"server5xx,omitempty"`
	// InteractiveOK/BatchOK are per-class goodput (successful responses):
	// interactive must out-survive batch under storm.
	InteractiveOK int `json:"interactiveOk,omitempty"`
	BatchOK       int `json:"batchOk,omitempty"`

	// All/Cached/Uncached split the latency population by cache
	// disposition: the acceptance gate is on Cached.P99.
	All      Percentiles `json:"latency"`
	Cached   Percentiles `json:"cachedLatency"`
	Uncached Percentiles `json:"uncachedLatency"`
	// Interactive covers successful interactive-class requests only — the
	// overload smoke's bounded-p99 gate reads it.
	Interactive Percentiles `json:"interactiveLatency,omitempty"`

	// Histograms carries the full latency distributions (µs buckets,
	// geometric bounds) — the machine-readable loadreport.json payload that
	// lets downstream tooling recompute any quantile or plot the curve
	// without the raw samples.
	Histograms *LatencyHists `json:"histograms,omitempty"`
}

// LatencyHists are fixed-bucket latency distributions in microseconds.
// Bounds are geometric (10µs·2ⁱ): cached cells serve in tens of µs, cold
// simulations in tens of ms — only a log-spaced axis resolves both.
type LatencyHists struct {
	All      *metrics.Histogram `json:"all"`
	Cached   *metrics.Histogram `json:"cached"`
	Uncached *metrics.Histogram `json:"uncached"`
}

// latencyBounds spans 10µs … ~20s geometrically (factor 2, 22 bounds).
func latencyBounds() []int { return metrics.ExpBuckets(10, 2, 22) }

type sample struct {
	us       float64
	cached   bool
	err      bool
	batch    bool
	shed     bool
	shedHint bool
	s5xx     bool
}

// Run executes the configured load against the server.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	clients := cfg.Clients
	if len(clients) == 0 {
		if cfg.Client == nil {
			return nil, fmt.Errorf("loadgen: no client")
		}
		clients = []*client.Client{cfg.Client}
	}
	mode := cfg.Mode
	if mode == "" {
		mode = "closed"
	}
	if mode != "closed" && mode != "open" {
		return nil, fmt.Errorf("loadgen: unknown mode %q (closed or open)", mode)
	}
	if cfg.Requests <= 0 && cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}

	cells := cellStream(cfg)
	if len(cells) == 0 {
		return nil, fmt.Errorf("loadgen: empty cell set")
	}

	var (
		mu      sync.Mutex
		samples []sample
	)
	record := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	runCtx := ctx
	if cfg.Duration > 0 {
		// A cancel ctx driven by a timer, NOT WithTimeout: the window bounds
		// the measurement, it is not each request's patience. A ctx deadline
		// here would be stamped onto every request as X-Parrot-Deadline and
		// the server would (correctly) 504 requests issued near window end.
		var cancel context.CancelFunc
		runCtx, cancel = context.WithCancel(ctx)
		t := time.AfterFunc(cfg.Duration, cancel)
		defer t.Stop()
		defer cancel()
	}

	issue := func(i int) {
		req := cells[i%len(cells)]
		if cfg.Distinct > 0 {
			// Cold storm: churn the instruction budget so consecutive laps
			// over the cell ring are distinct digests, not cache hits.
			req.Insts = req.Insts + (i/len(cells))%cfg.Distinct
		}
		// Interleave the class split at fine grain (stride 997 is coprime to
		// 1000, so the pattern mixes instead of front-loading one class).
		batch := cfg.BatchFraction > 0 && float64(i*997%1000) < cfg.BatchFraction*1000
		if batch {
			req.Priority = proto.PriorityBatch
		}
		reqCtx := runCtx
		if cfg.DeadlineMs > 0 {
			var cancel context.CancelFunc
			reqCtx, cancel = context.WithTimeout(runCtx, time.Duration(cfg.DeadlineMs)*time.Millisecond)
			defer cancel()
		}
		start := time.Now()
		resp, err := clients[i%len(clients)].Run(reqCtx, req)
		el := float64(time.Since(start).Microseconds())
		if err != nil {
			// Runs cut off by the load window are not service errors.
			if runCtx.Err() != nil {
				return
			}
			s := sample{us: el, err: true, batch: batch}
			if he, ok := client.AsHTTPError(err); ok {
				s.shed = he.Status == 429
				s.shedHint = s.shed && he.RetryAfter > 0
				s.s5xx = he.Status >= 500
			}
			record(s)
			return
		}
		record(sample{us: el, cached: resp.Cached, batch: batch})
	}

	start := time.Now()
	switch mode {
	case "closed":
		workers := cfg.Concurrency
		if workers <= 0 {
			workers = 4
		}
		var next int
		var nmu sync.Mutex
		take := func() (int, bool) {
			nmu.Lock()
			defer nmu.Unlock()
			if cfg.Requests > 0 && next >= cfg.Requests {
				return 0, false
			}
			i := next
			next++
			return i, true
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if runCtx.Err() != nil {
						return
					}
					i, ok := take()
					if !ok {
						return
					}
					issue(i)
				}
			}()
		}
		wg.Wait()

	case "open":
		rate := cfg.RateHz
		if rate <= 0 {
			rate = 50
		}
		bound := cfg.Concurrency
		if bound <= 0 {
			bound = 512
		}
		sem := make(chan struct{}, bound)
		interval := time.Duration(float64(time.Second) / rate)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var wg sync.WaitGroup
		i := 0
	loop:
		for {
			if cfg.Requests > 0 && i >= cfg.Requests {
				break
			}
			select {
			case <-runCtx.Done():
				break loop
			case <-ticker.C:
				select {
				case sem <- struct{}{}:
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						defer func() { <-sem }()
						issue(i)
					}(i)
					i++
				default:
					// In-flight bound hit: the arrival is dropped and counted
					// as an error — open-loop overload must be visible, not
					// silently converted into closed-loop backpressure.
					record(sample{err: true})
				}
			}
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	return summarize(mode, cfg, samples, elapsed), nil
}

// cellStream expands the cell set into a deterministic shuffled request
// ring.
func cellStream(cfg Config) []proto.RunRequest {
	models := cfg.Models
	if len(models) == 0 {
		models = []string{"N", "TN", "TON", "W", "TW", "TOW", "TOS"}
	}
	apps := cfg.Apps
	if len(apps) == 0 {
		apps = allAppNames()
	}
	var out []proto.RunRequest
	for _, m := range models {
		for _, a := range apps {
			out = append(out, proto.RunRequest{Model: m, App: a, Insts: cfg.Insts})
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func summarize(mode string, cfg Config, samples []sample, elapsed time.Duration) *Report {
	r := &Report{
		Mode:      mode,
		Requests:  len(samples),
		ElapsedMs: elapsed.Milliseconds(),
	}
	models := cfg.Models
	if len(models) == 0 {
		r.DistinctMod = 7
	} else {
		r.DistinctMod = len(models)
	}
	if len(cfg.Apps) == 0 {
		r.DistinctApp = len(allAppNames())
	} else {
		r.DistinctApp = len(cfg.Apps)
	}
	hists := &LatencyHists{
		All:      metrics.NewHistogram(latencyBounds()...),
		Cached:   metrics.NewHistogram(latencyBounds()...),
		Uncached: metrics.NewHistogram(latencyBounds()...),
	}
	var all, hit, miss, inter []float64
	for _, s := range samples {
		if s.err {
			if s.shed {
				// A 429 shed is the overload design working, not a failure;
				// it is graded separately (and on whether it carried a hint).
				r.Shed++
				if s.shedHint {
					r.ShedHintOK++
				}
				continue
			}
			if s.s5xx {
				r.Server5xx++
			}
			r.Errors++
			continue
		}
		if s.batch {
			r.BatchOK++
		} else {
			r.InteractiveOK++
			inter = append(inter, s.us)
		}
		all = append(all, s.us)
		hists.All.Add(int(s.us))
		if s.cached {
			r.CacheHits++
			hit = append(hit, s.us)
			hists.Cached.Add(int(s.us))
		} else {
			miss = append(miss, s.us)
			hists.Uncached.Add(int(s.us))
		}
	}
	r.Histograms = hists
	if ok := len(all); ok > 0 {
		r.HitRate = float64(r.CacheHits) / float64(ok)
	}
	if elapsed > 0 {
		r.Throughput = float64(len(samples)) / elapsed.Seconds()
	}
	r.All = percentiles(all)
	r.Cached = percentiles(hit)
	r.Uncached = percentiles(miss)
	r.Interactive = percentiles(inter)
	return r
}

func percentiles(us []float64) Percentiles {
	p := Percentiles{N: len(us)}
	if len(us) == 0 {
		return p
	}
	sort.Float64s(us)
	sum := 0.0
	for _, v := range us {
		sum += v
	}
	at := func(q float64) float64 {
		i := int(q * float64(len(us)-1))
		return us[i]
	}
	p.Mean = sum / float64(len(us))
	p.P50 = at(0.50)
	p.P90 = at(0.90)
	p.P99 = at(0.99)
	p.P999 = at(0.999)
	p.Max = us[len(us)-1]
	return p
}

// String renders the report as the harness's human summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s-loop load: %d requests (%d errors) over %d models × %d apps in %.2fs  (%.1f req/s)\n",
		r.Mode, r.Requests, r.Errors, r.DistinctMod, r.DistinctApp,
		float64(r.ElapsedMs)/1000, r.Throughput)
	fmt.Fprintf(&b, "  cache hit rate %.1f%% (%d/%d)\n", 100*r.HitRate, r.CacheHits, r.Requests-r.Errors)
	if r.Shed > 0 || r.Server5xx > 0 {
		fmt.Fprintf(&b, "  overload: shed %d (with Retry-After %d)  5xx %d  goodput interactive %d / batch %d\n",
			r.Shed, r.ShedHintOK, r.Server5xx, r.InteractiveOK, r.BatchOK)
	}
	row := func(name string, p Percentiles) {
		if p.N == 0 {
			return
		}
		fmt.Fprintf(&b, "  %-9s n=%-6d p50 %8.0fµs  p90 %8.0fµs  p99 %8.0fµs  p99.9 %8.0fµs  max %8.0fµs\n",
			name, p.N, p.P50, p.P90, p.P99, p.P999, p.Max)
	}
	row("all", r.All)
	row("cached", r.Cached)
	row("uncached", r.Uncached)
	if r.Shed > 0 {
		row("interact.", r.Interactive)
	}
	return b.String()
}
