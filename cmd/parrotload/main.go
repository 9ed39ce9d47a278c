// Command parrotload load-tests a parrotd instance: it replays open- or
// closed-loop request streams over a (model × application) cell set and
// reports latency percentiles split by cache disposition — the serving
// layer's proof that a warm content-addressed cache turns the steady 44×7
// matrix into a ≥95%-hit, sub-5ms-p99 workload.
//
// Usage:
//
//	parrotload -requests 1000 -concurrency 8                # closed loop
//	parrotload -mode open -rate 200 -duration 30s           # open loop
//	parrotload -models N,TON -apps gzip,swim -n 20000       # small cell set
//	parrotload -warm                                        # pre-touch every cell once
//	parrotload -min-hit 0.95 -max-cached-p99 5ms            # CI assertions
//	parrotload -report loadreport.json                      # machine-readable report
//	parrotload -concurrency 20 -batch-frac 0.5 -distinct 64 \
//	  -retries 1 -deadline 2s                               # overload storm
//	parrotload -max-5xx 0 -require-retry-after \
//	  -min-goodput-ratio 1.0 -max-interactive-p99 5s        # overload gates
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parrot/internal/serve/client"
	"parrot/internal/serve/loadgen"
	"parrot/internal/serve/proto"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	server := flag.String("server", defaultServer(), "parrotd base URL, or a comma-separated list of cluster nodes to round-robin over (or $PARROTD)")
	mode := flag.String("mode", "closed", "closed (back-to-back workers) or open (fixed-rate arrivals)")
	concurrency := flag.Int("concurrency", 8, "closed-loop workers / open-loop in-flight bound")
	rate := flag.Float64("rate", 50, "open-loop arrival rate (requests/s)")
	requests := flag.Int("requests", 0, "stop after this many requests (0 = -duration rules)")
	duration := flag.Duration("duration", 0, "stop after this wall time (0 with -requests unset = 10s)")
	models := flag.String("models", "", "comma-separated model subset (empty = all 7)")
	apps := flag.String("apps", "", "comma-separated application subset (empty = all 44)")
	n := flag.Int("n", 0, "dynamic instructions per cell (0 = profile defaults)")
	seed := flag.Int64("seed", 1, "request-stream shuffle seed")
	warm := flag.Bool("warm", false, "issue every distinct cell once (batch) before measuring")
	minHit := flag.Float64("min-hit", -1, "fail unless the measured hit rate >= this fraction")
	maxCachedP99 := flag.Duration("max-cached-p99", 0, "fail unless cached-cell p99 <= this (0 = no gate)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	reportPath := flag.String("report", "", "also write the full JSON report (latency histograms included) to this file, e.g. loadreport.json")
	batchFrac := flag.Float64("batch-frac", 0, "fraction of requests sent on the batch priority class")
	distinct := flag.Int("distinct", 0, "churn each cell's instruction budget through this many variants (cold storm)")
	retries := flag.Int("retries", 0, "client transport attempts per request (0 = library default of 3)")
	deadline := flag.Duration("deadline", 0, "per-request deadline, propagated as X-Parrot-Deadline (0 = none)")
	max5xx := flag.Int("max-5xx", -1, "fail if more than this many 5xx responses were observed (-1 = no gate)")
	requireRetryAfter := flag.Bool("require-retry-after", false, "fail unless every 429 shed carried a Retry-After hint")
	minGoodputRatio := flag.Float64("min-goodput-ratio", 0, "fail unless interactive goodput >= ratio × batch goodput (0 = no gate)")
	maxInteractiveP99 := flag.Duration("max-interactive-p99", 0, "fail unless successful interactive p99 <= this (0 = no gate)")
	flag.Parse()

	servers := splitList(*server)
	if len(servers) == 0 {
		return fmt.Errorf("parrotload: no server")
	}
	clients := make([]*client.Client, len(servers))
	ctx := context.Background()
	var opts []client.Option
	if *retries > 0 {
		opts = append(opts, client.WithRetry(client.RetryPolicy{MaxAttempts: *retries}))
	}
	for i, s := range servers {
		clients[i] = client.New(s, opts...)
		if err := clients[i].Ping(ctx); err != nil {
			return fmt.Errorf("parrotload: server unreachable at %s: %w", s, err)
		}
	}
	c := clients[0]

	if *warm {
		// Warm pass: one batch matrix over the exact cell set, so the
		// measured pass exercises the cache rather than the simulator.
		t0 := time.Now()
		resp, err := c.Matrix(ctx, proto.MatrixRequest{
			Models: splitList(*models), Apps: splitList(*apps), Insts: *n,
		}, nil)
		if err != nil {
			return fmt.Errorf("parrotload: warm pass: %w", err)
		}
		if resp.FailedCells > 0 {
			return fmt.Errorf("parrotload: warm pass left %d of %d cells failed", resp.FailedCells, resp.TotalCells)
		}
		fmt.Fprintf(os.Stderr, "parrotload: warmed %d cells in %v (%d already cached)\n",
			resp.TotalCells, time.Since(t0).Round(time.Millisecond), resp.CachedCells)
	}

	report, err := loadgen.Run(ctx, loadgen.Config{
		Client:        c,
		Clients:       clients,
		Mode:          *mode,
		Concurrency:   *concurrency,
		RateHz:        *rate,
		Requests:      *requests,
		Duration:      *duration,
		Models:        splitList(*models),
		Apps:          splitList(*apps),
		Insts:         *n,
		Seed:          *seed,
		BatchFraction: *batchFrac,
		Distinct:      *distinct,
		DeadlineMs:    int(deadline.Milliseconds()),
	})
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		fmt.Print(report.String())
	}
	if *reportPath != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportPath, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("parrotload: write report: %w", err)
		}
		fmt.Fprintf(os.Stderr, "parrotload: report written to %s\n", *reportPath)
	}

	// CI assertions.
	if *minHit >= 0 && report.HitRate < *minHit {
		return fmt.Errorf("hit rate %.3f below required %.3f", report.HitRate, *minHit)
	}
	if *maxCachedP99 > 0 {
		if report.Cached.N == 0 {
			return fmt.Errorf("no cached samples to gate p99 on")
		}
		p99 := time.Duration(report.Cached.P99 * float64(time.Microsecond))
		if p99 > *maxCachedP99 {
			return fmt.Errorf("cached p99 %v above budget %v", p99, *maxCachedP99)
		}
	}
	if *max5xx >= 0 && report.Server5xx > *max5xx {
		return fmt.Errorf("%d server 5xx responses, budget %d", report.Server5xx, *max5xx)
	}
	if *requireRetryAfter && report.ShedHintOK != report.Shed {
		return fmt.Errorf("%d of %d sheds carried no Retry-After hint",
			report.Shed-report.ShedHintOK, report.Shed)
	}
	if *minGoodputRatio > 0 && report.BatchOK > 0 {
		ratio := float64(report.InteractiveOK) / float64(report.BatchOK)
		if ratio < *minGoodputRatio {
			return fmt.Errorf("interactive/batch goodput ratio %.2f below required %.2f (%d vs %d)",
				ratio, *minGoodputRatio, report.InteractiveOK, report.BatchOK)
		}
	}
	if *maxInteractiveP99 > 0 {
		if report.Interactive.N == 0 {
			return fmt.Errorf("no successful interactive samples to gate p99 on")
		}
		p99 := time.Duration(report.Interactive.P99 * float64(time.Microsecond))
		if p99 > *maxInteractiveP99 {
			return fmt.Errorf("interactive p99 %v above budget %v", p99, *maxInteractiveP99)
		}
	}
	return nil
}

func defaultServer() string {
	if s := os.Getenv("PARROTD"); s != "" {
		return s
	}
	return "http://127.0.0.1:8044"
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
