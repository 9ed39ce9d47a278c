// Command parrotd is the simulation-as-a-service daemon: a long-running
// HTTP server that executes (model, application) simulation cells on a
// pooled-machine worker fleet behind a content-addressed result cache.
// Repeated cells — the steady state of the 44×7 evaluation matrix — are
// served from cache in microseconds instead of re-simulated.
//
// Usage:
//
//	parrotd                                  # listen on :8044, memory cache
//	parrotd -addr 127.0.0.1:0 -addrfile a    # random port, written to file
//	parrotd -cachedir /var/cache/parrot      # persistent on-disk store
//	parrotd -cachemem 268435456 -workers 8   # 256 MiB LRU, 8 workers
//	parrotd -prewarm                         # pre-build one machine per model
//	parrotd -loglevel debug -pprof           # verbose logs + /debug/pprof/
//	parrotd -addr 127.0.0.1:7101 \
//	  -peers http://127.0.0.1:7101,http://127.0.0.1:7102,http://127.0.0.1:7103
//	                                         # one node of a 3-node cluster
//
// With -peers, N daemons serve as one logical service: cell digests are
// consistent-hashed onto nodes, non-owned /v1/run requests are forwarded to
// their owner (one hop max), and /v1/matrix on any node scatters cells
// across the ring with retry-elsewhere on node death. Membership is the
// one failure detector: peers are probed against /readyz, so draining or
// still-prewarming nodes are routed around, and a peer that fails
// -suspectafter times in a row is skipped until a probe succeeds. GET
// /clusterz exposes the membership view.
//
// Operational surface: GET /metricsz serves every stats series as
// Prometheus text exposition (parrotctl top renders and asserts on it),
// GET /v1/trace/{requestID} replays a request's span timeline as Chrome
// trace-event JSON, and -pprof exposes the runtime profiles. Logs are
// log/slog JSON lines on stderr, one per event; request lines carry reqID,
// route, status and us (microseconds), and lines logged inside a handler
// carry the same reqID.
//
// SIGINT/SIGTERM drains gracefully: /healthz reports draining, queued and
// running jobs finish, in-flight HTTP responses complete, then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parrot/internal/chaos"
	"parrot/internal/cluster"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/serve/api"
	"parrot/internal/serve/cache"
	"parrot/internal/serve/sched"
	"parrot/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8044", "listen address (port 0 = random)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file (for scripts wrapping -addr :0)")
	cacheDir := flag.String("cachedir", "", "on-disk result store directory (empty = memory only)")
	cacheMem := flag.Int64("cachemem", 64<<20, "in-memory cache byte budget")
	workers := flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
	queueCap := flag.Int("queue", 4096, "queued-job bound: admission caps running + queued at queue + workers")
	prewarm := flag.Bool("prewarm", false, "pre-construct one pooled machine per model before serving")
	drainTimeout := flag.Duration("draintimeout", 60*time.Second, "max time to drain on shutdown")
	logLevel := flag.String("loglevel", "info", "log level: debug, info, warn, error")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceBuf := flag.Int("tracebuf", 256, "request traces kept for /v1/trace/{id}")
	peers := flag.String("peers", "", "comma-separated peer base URLs (enables cluster mode; include this node or let -advertise add it)")
	advertise := flag.String("advertise", "", "this node's base URL as peers reach it (default http://<bound addr>)")
	vnodes := flag.Int("vnodes", 0, "consistent-hash virtual nodes per member (0 = 64)")
	probeInterval := flag.Duration("probeinterval", time.Second, "peer health-probe interval")
	suspectAfter := flag.Int("suspectafter", 2, "consecutive probe failures before a peer turns suspect")
	deadAfter := flag.Duration("deadafter", 5*time.Second, "time a still-failing suspect peer may linger before leaving the ring")
	admitTarget := flag.Duration("admittarget", 0, "interactive queue-wait target driving adaptive admission control (0 = 250ms)")
	chaosSpec := flag.String("chaos", "", "deterministic fault-injection rules, e.g. 'site=sched.run p=0.3 lat=20ms; site=cache.disk.get p=0.1 err' (seed from PARROT_CHAOS, default 1)")
	flag.Parse()

	var lv slog.Level
	if err := lv.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("parrotd: -loglevel: %w", err)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lv})).
		With("app", "parrotd")
	reg := telemetry.NewRegistry()

	// Deterministic chaos injection (off unless -chaos names rules). The
	// schedule is a pure function of the PARROT_CHAOS seed, so a failing
	// chaos run reproduces exactly by re-running with the same seed.
	var inj *chaos.Injector
	if *chaosSpec != "" {
		rules, err := chaos.Parse(*chaosSpec)
		if err != nil {
			return fmt.Errorf("parrotd: -chaos: %w", err)
		}
		seed := chaos.SeedFromEnv()
		inj = chaos.New(seed, rules)
		inj.Register(reg)
		logger.Warn("chaos injection active",
			"seed", fmt.Sprintf("%d", seed), "rules", *chaosSpec)
	}

	c, err := cache.New(cache.Config{MemBudget: *cacheMem, Dir: *cacheDir, Chaos: inj})
	if err != nil {
		return fmt.Errorf("parrotd: cache: %w", err)
	}

	pool := core.NewPool()
	sc := sched.New(sched.Config{
		Workers:     *workers,
		QueueCap:    *queueCap,
		Cache:       c,
		Pool:        pool,
		Registry:    reg,
		Log:         logger,
		AdmitTarget: *admitTarget,
		Chaos:       inj,
	})

	// Bind before constructing the cluster so -advertise can default to the
	// actually-bound address (scripts use -addr 127.0.0.1:0).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("parrotd: listen: %w", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			return fmt.Errorf("parrotd: addrfile: %w", err)
		}
	}

	var cl *cluster.Cluster
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = "http://" + reachableAddr(bound)
		}
		cl = cluster.New(cluster.Config{
			Advertise:     self,
			Peers:         splitPeers(*peers),
			VNodes:        *vnodes,
			ProbeInterval: *probeInterval,
			SuspectAfter:  *suspectAfter,
			DeadAfter:     *deadAfter,
			Registry:      reg,
			Log:           logger,
			Chaos:         inj,
		})
		logger.Info("cluster mode", "advertise", self, "peers", *peers,
			"probeInterval", probeInterval.String(), "deadAfter", deadAfter.String())
	}

	srv := api.New(api.Config{
		Cache:       c,
		Sched:       sc,
		Registry:    reg,
		Log:         logger,
		TraceBuf:    *traceBuf,
		EnablePprof: *enablePprof,
		Cluster:     cl,
	})

	if *prewarm {
		// First-request latency matters for a service: construct one machine
		// per model ahead of demand. It runs in the background with the
		// readiness gate held, so the daemon answers /healthz (alive)
		// immediately while /readyz keeps peers from routing cells here
		// until the pool is warm.
		sc.SetReady(false)
		go func() {
			t0 := time.Now()
			for _, m := range config.All() {
				pool.Prewarm(m, 1)
			}
			sc.SetReady(true)
			logger.Info("prewarmed pool", "machines", pool.Size(),
				"took", time.Since(t0).Round(time.Millisecond).String())
		}()
	}
	// The one human-facing line (scripts scrape stdout for it); everything
	// else is structured JSON on stderr.
	fmt.Printf("parrotd listening on %s (workers=%d cache=%s)\n",
		bound, sc.Stats().Workers, cacheDesc(*cacheMem, *cacheDir))
	logger.Info("listening", "addr", bound, "workers", sc.Stats().Workers,
		"cache", cacheDesc(*cacheMem, *cacheDir), "pprof", *enablePprof)

	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	if cl != nil {
		cl.Start()
		defer cl.Stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("parrotd: serve: %w", err)
		}
		return nil
	case s := <-sig:
		logger.Info("signal received, draining", "signal", s.String())
	}

	// Graceful drain: stop accepting scheduler jobs, let queued/running work
	// and in-flight HTTP responses finish, then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := sc.Drain(ctx); err != nil {
		logger.Error("scheduler drain", "err", err.Error())
	}
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("parrotd: shutdown: %w", err)
	}
	logger.Info("drained cleanly")
	return nil
}

func cacheDesc(mem int64, dir string) string {
	if dir == "" {
		return fmt.Sprintf("%dMiB mem", mem>>20)
	}
	return fmt.Sprintf("%dMiB mem + %s", mem>>20, dir)
}

// splitPeers parses the -peers list, trimming blanks.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// reachableAddr rewrites a wildcard bind ("[::]:7101", "0.0.0.0:7101")
// into a loopback form peers can dial; explicit hosts pass through.
func reachableAddr(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	switch host {
	case "", "::", "0.0.0.0":
		return net.JoinHostPort("127.0.0.1", port)
	}
	return bound
}
