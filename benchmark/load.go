package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/serve/proto"
	"parrot/internal/workload"
)

// requestTimeout bounds one request; nothing in a healthy run comes close.
const requestTimeout = 30 * time.Second

// closedLoop runs nproc() clients against node 0 for the window.
// Each client sends its next request only when the previous one returned,
// walking its own seed-shuffled order of the warmed cells.
func closedLoop(env *serveEnv, seconds float64, seed int64) ([]reqRec, time.Time, float64) {
	clients := nproc()
	per := make([][]reqRec, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := newClient(env.nodes[0].url)
			order := rand.New(rand.NewSource(seed*7919 + int64(g))).Perm(len(env.cells))
			for i := 0; time.Now().Before(deadline); i++ {
				c := env.cells[order[i%len(order)]]
				ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
				sent := time.Since(start)
				resp, err := cl.Run(ctx, proto.RunRequest{Model: c.model, App: c.app, Insts: env.o.Insts})
				cancel()
				r := reqRec{Due: sent, Released: sent, Sent: sent, Done: time.Since(start), Sender: g}
				r.Err = checkRun(resp, err, c.spec, c.result)
				if r.Err == nil {
					r.ID = resp.RequestID
					if !resp.Cached {
						r.Err = fmt.Errorf("%w: %s/%s disposition %s", errNotHit, c.model, c.app, resp.Disposition)
					}
				}
				per[g] = append(per[g], r)
			}
		}(g)
	}
	wg.Wait()
	elapsed := since(start)
	var all []reqRec
	for _, p := range per {
		all = append(all, p...)
	}
	return all, start, elapsed
}

// arrival is one scheduled open-loop request.
type arrival struct {
	due   time.Duration
	cell  cellRef
	miss  bool
	insts int
}

// schedule lays the arrivals of process proc's window at a fixed rate
// o.Rate. Every missEvery-th arrival, from a seeded offset, asks
// for a fresh budget of a cell, the rest for warmed cells. Cells come from
// two seeded permutations of the roster, one for hits and one for misses,
// which the run's processes walk in turn: every run asks for nearly the
// same mix of cheap and expensive cells, so the tail measures the system
// rather than the draw. Even spacing, rather than Poisson gaps, does the
// same for bursts.
func schedule(env *serveEnv, seconds float64, seed int64, proc int) ([]arrival, error) {
	rng := rand.New(rand.NewSource(seed))
	hitOrder, missOrder := rng.Perm(len(env.cells)), rng.Perm(len(env.cells))
	every := missEvery
	phase := rng.Intn(every)
	n := int(seconds * env.o.Rate)
	misses := (n + every - 1 - phase) / every
	nextHit, nextMiss := proc*(n-misses), proc*misses
	out := make([]arrival, n)
	for i := range out {
		a := arrival{due: time.Duration((float64(i) + 0.5) / env.o.Rate * float64(time.Second)), insts: env.o.Insts}
		if i%every != phase {
			a.cell = env.cells[hitOrder[nextHit%len(hitOrder)]]
			nextHit++
		} else {
			a.cell = env.cells[missOrder[nextMiss%len(missOrder)]]
			nextMiss++
			a.miss = true
			a.insts = env.freshBudget()
			d, err := specDigest(a.cell.model, a.cell.app, a.insts)
			if err != nil {
				return nil, err
			}
			a.cell.spec, a.cell.result = d, ""
		}
		out[i] = a
	}
	return out, nil
}

// drainGrace is how long after the window queued arrivals may still be
// sent before they count as arrivals that could not be sent.
const drainGrace = 10 * time.Second

// openLoop sends the scheduled arrivals to node 0 on their due times,
// whatever the replies do, over nproc() connections. A released request
// whose connections are all busy waits, and the wait counts in its
// latency, which runs from its release: the moment the generator, woken
// for its due time, hands it to the senders. The generator's own timer
// lateness (up to a millisecond on an idle host, as long as a cached
// answer takes) is reported apart, as late_p99_ms.
func openLoop(env *serveEnv, seconds float64, seed int64, proc int) ([]reqRec, time.Time, float64, error) {
	arr, err := schedule(env, seconds, seed, proc)
	if err != nil {
		return nil, time.Time{}, 0, err
	}
	recs := make([]reqRec, len(arr))
	// Buffered to the number of arrivals, so the generator never blocks and
	// its lateness is timer slack only; sender backlog shows in latency.
	ch := make(chan int, len(arr))
	start := time.Now()
	cutoff := time.Duration(seconds*float64(time.Second)) + drainGrace
	go func() {
		defer close(ch)
		for i, a := range arr {
			time.Sleep(time.Until(start.Add(a.due)))
			recs[i].Released = time.Since(start) // the send on ch orders this before the sender's reads
			ch <- i
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < nproc(); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cl := newClient(env.nodes[0].url)
			for i := range ch {
				a := arr[i]
				r := &recs[i]
				r.Due, r.Miss, r.Sender = a.due, a.miss, s
				r.Model, r.App, r.Insts = a.cell.model, a.cell.app, a.insts
				r.Sent = time.Since(start)
				if r.Sent > cutoff {
					r.Err, r.Done = errUnsent, r.Sent
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
				resp, err := cl.Run(ctx, proto.RunRequest{Model: a.cell.model, App: a.cell.app, Insts: a.insts})
				cancel()
				r.Done = time.Since(start)
				r.Err = checkRun(resp, err, a.cell.spec, a.cell.result)
				if r.Err == nil {
					r.ID, r.ResultDigest = resp.RequestID, resp.ResultDigest
				}
			}
		}(s)
	}
	wg.Wait()
	return recs, start, since(start), nil
}

// resimulate re-runs a seeded sample of answered misses on fresh machines
// in-process, compares result digests with what the fleet returned, folds
// mismatches into the report and returns how many it checked.
func resimulate(rep *report, ok []reqRec, n int, seed int64) (checked int) {
	var misses []reqRec
	for _, r := range ok {
		if r.Miss {
			misses = append(misses, r)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(misses), func(i, j int) { misses[i], misses[j] = misses[j], misses[i] })
	if len(misses) > n {
		misses = misses[:n]
	}
	for _, r := range misses {
		m, _ := modelByID(r.Model)
		p, _ := workload.ByName(r.App)
		if got := experiments.ResultDigest(core.RunWarmFresh(m, p, r.Insts)); got != r.ResultDigest {
			rep.Result.Failed++
			rep.Result.Correct = false
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s/%s@%d re-simulates to %.12s, fleet said %.12s",
				r.Model, r.App, r.Insts, got, r.ResultDigest))
		}
		checked++
	}
	return checked
}

func latencies(recs []reqRec, keep func(*reqRec) bool) []float64 {
	var out []float64
	for i := range recs {
		if keep(&recs[i]) {
			out = append(out, recs[i].latMs())
		}
	}
	return out
}

func all(*reqRec) bool      { return true }
func isHit(r *reqRec) bool  { return !r.Miss }
func isMiss(r *reqRec) bool { return r.Miss }

// lateMs is how late the generator released each request.
func lateMs(recs []reqRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = float64(r.Released-r.Due) / 1e6
	}
	return out
}

// windowOut is what one serve child reports.
type windowOut struct {
	SetupS, Elapsed   float64
	Attempted, Failed int
	Correct           bool
	Errors            []string
	OK, Resimulated   int
	HitMs, MissMs     []float64 // answered requests, from release
	LateMs            []float64 // every request: release minus due time
}

// serveWindow is one fresh process's share of a serve-mixed run: it sets up
// the two-node fleet (timed as set-up from process start), runs one window
// of o.Seconds/serveProcs and checks every answer.
func serveWindow(o options, proc int, start time.Time) (windowOut, error) {
	var out windowOut
	env, err := setupServe(o, 2, 1)
	if err != nil {
		return out, err
	}
	defer env.close()
	out.SetupS = since(start)
	rep := newReport(o)
	env.markSetup(rep)
	recs, _, elapsed, err := openLoop(env, o.Seconds/serveProcs, o.Seed, proc)
	if err != nil {
		return out, err
	}
	out.Elapsed = elapsed
	ok := tally(rep, recs)
	out.Resimulated = resimulate(rep, ok, resimPerProc, o.Seed*1000+int64(proc))
	out.LateMs = lateMs(recs)
	out.OK = len(ok)
	out.HitMs, out.MissMs = latencies(ok, isHit), latencies(ok, isMiss)
	out.Attempted, out.Failed, out.Correct, out.Errors = rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct, rep.Errors
	return out, nil
}

// runServe runs serve-mixed (an open loop of warmed and fresh cells on a
// two-node swarm, one worker per node) as serveProcs fresh processes, one
// after another, and pools their windows.
func runServe(o options) (*report, error) {
	rep := newReport(o)
	w := nproc()
	rep.Load = loadInfo{Workers: 1, Clients: w, Connections: w, Nodes: 2, Loop: "open, evenly spaced arrivals",
		OfferedRate: o.Rate, MissFrac: 1.0 / missEvery, InstsPerCell: o.Insts, Cells: len(config.All()) * len(roster(o))}
	var setups, rss, hits, misses, late []float64
	answered, elapsed, resim := 0, 0.0, 0
	for i := 0; i < serveProcs; i++ {
		co, err := spawn(childServeWindow, o, i)
		if err != nil {
			return nil, err
		}
		win := co.Window
		setups, rss = append(setups, co.SetupS), append(rss, co.RSSMiB)
		answered, elapsed = answered+win.OK, elapsed+win.Elapsed
		hits, misses, late = append(hits, win.HitMs...), append(misses, win.MissMs...), append(late, win.LateMs...)
		rep.Result.Attempted += win.Attempted
		rep.Result.Failed += win.Failed
		rep.Result.Correct = rep.Result.Correct && win.Correct
		rep.Errors = append(rep.Errors, win.Errors...)
		resim += win.Resimulated
	}
	// Latency percentiles pool every process's window: a pooled p99 rests
	// on serveProcs times the samples of one window's.
	cells := append(append([]float64(nil), hits...), misses...)
	rep.setEndToEnd(setups, float64(answered)/elapsed, quantile(cells, 0.5), quantile(cells, 0.99), median(rss))
	rep.Samples["cells"] = len(cells)
	rep.Samples["processes"] = serveProcs
	rep.Samples["hits"] = len(hits)
	rep.Samples["misses"] = len(misses)
	rep.Samples["resimulated"] = resim
	rep.Metrics["hit_p50_us"] = metric{quantile(hits, 0.5) * 1000, "us"}
	rep.Metrics["hit_p99_us"] = metric{quantile(hits, 0.99) * 1000, "us"}
	rep.Metrics["miss_p50_ms"] = metric{quantile(misses, 0.5), "ms"}
	if supports(len(misses), 0.99) {
		rep.Metrics["miss_p99_ms"] = metric{quantile(misses, 0.99), "ms"}
	} else {
		rep.Metrics["miss_p90_ms"] = metric{quantile(misses, 0.9), "ms"}
		rep.Notes = append(rep.Notes, fmt.Sprintf("miss_p90_ms replaces miss_p99_ms: %d misses leave fewer than ten beyond p99", len(misses)))
	}
	rep.Metrics["late_p99_ms"] = metric{quantile(late, 0.99), "ms"}
	return rep, nil
}
