package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/workload"
)

// refDigests are committed matrix digests keyed by refKey. The 50k entry
// is the golden digest TestMatrixGoldenDigest pins; the small one backs
// this package's tests.
var refDigests = map[string]string{
	"50000":               "a0aa44d4ebd74e3cde45c183a8df6e3bdf13204d30c17f779a8c452678846a9a",
	"3000/gcc,swim,flash": "de8b8aef48e3ffbc1d4b06b44e16d181a20d8e1c441a2a1ca8257bdd53e2ec48",
}

func refKey(o options) string {
	k := strconv.Itoa(o.Insts)
	if o.Apps != nil {
		k += "/" + strings.Join(o.Apps, ",")
	}
	return k
}

// reference returns the digest the matrix of o must reproduce.
func reference(o options) (string, error) {
	if o.RefDigest != "" {
		return o.RefDigest, nil
	}
	if d, ok := refDigests[refKey(o)]; ok {
		return d, nil
	}
	return "", fmt.Errorf("no committed reference digest for budget %s", refKey(o))
}

// roster returns the applications of o in canonical roster order.
func roster(o options) []workload.Profile {
	all := workload.Apps()
	if o.Apps == nil {
		return all
	}
	keep := make(map[string]bool, len(o.Apps))
	for _, a := range o.Apps {
		keep[a] = true
	}
	var out []workload.Profile
	for _, p := range all {
		if keep[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// passOut is what one matrix child reports.
type passOut struct {
	SetupS float64
	PassS  float64
	Cells  int
	Insts  uint64 // measured-window instructions over all cells
	CellMs []float64
	Digest string
	Probe  float64 // host speed around the pass, probe steps/s
}

// scale converts the pass's times to the reference host speed probeRef.
func (p passOut) scale() float64 { return probeRef / p.Probe }

// matrixPass runs in a fresh child process: it synthesizes the programs
// and builds the pooled machines (set-up), then times one full
// experiments.Run over a seed-shuffled roster and digests the result
// reassembled in canonical order. A fresh process is what guarantees that
// no memo chain, pooled machine or result cache can answer a timed cell.
func matrixPass(o options, seed int64, start time.Time) (passOut, error) {
	var out passOut
	apps := roster(o)
	shuffled := append([]workload.Profile(nil), apps...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, p := range apps {
		workload.GenerateCached(p)
	}
	workers := runtime.GOMAXPROCS(0)
	for _, m := range config.All() {
		core.DefaultPool.Prewarm(m, workers)
	}
	out.SetupS = since(start)

	// The host's speed is read just before and just after the pass, each
	// time after a collection so that no GC cycle overlaps the reading.
	pr := newProbe(workers)
	read := func() float64 {
		runtime.GC()
		return pr.rate()
	}
	before := read()

	// Per-cell time: Progress runs serialized on the worker that finished
	// the cell, so the gap since that worker's previous completion is the
	// cell's Reset plus simulation time.
	last := map[uint64]time.Duration{}
	t0 := time.Now()
	res := experiments.Run(experiments.Config{
		Insts:       o.Insts,
		Apps:        shuffled,
		Parallelism: workers,
		Progress: func(_, _ int, elapsed, _ time.Duration) {
			g := goid()
			out.CellMs = append(out.CellMs, float64(elapsed-last[g])/1e6)
			last[g] = elapsed
		},
	})
	out.PassS = since(t0)
	out.Probe = (before + read()) / 2

	canon := experiments.Assemble(config.All(), apps, o.Insts, func(m config.Model, p workload.Profile) *core.Result {
		r := res.Get(m.ID, p.Name)
		if r != nil {
			out.Cells++
			out.Insts += r.Insts
		}
		return r
	})
	out.Digest = canon.Digest()
	return out, nil
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// minPasses keeps the fastest quarter meaningful when passes outlast
// --seconds.
const minPasses = 4

// fastest returns the quarter of ps (at least one pass) with the shortest
// pass times at the reference speed. Every pass does the same work, so the
// differences that scaling leaves are interference the probe missed, which
// only ever adds time; the fastest passes measure the code least disturbed.
func fastest(ps []passOut) []passOut {
	s := append([]passOut(nil), ps...)
	sort.Slice(s, func(i, j int) bool { return s[i].PassS/s[i].scale() < s[j].PassS/s[j].scale() })
	return s[:min(len(s), max(1, len(s)/4))]
}

// runMatrix times full 44×7 passes, each in its own process, until the
// timed pass seconds reach o.Seconds, and reports the fastest quarter at
// the reference host speed.
func runMatrix(o options) (*report, error) {
	ref, err := reference(o)
	if err != nil {
		return nil, err
	}
	perPass := len(config.All()) * len(roster(o))
	rep := newReport(o)
	rep.Load = loadInfo{
		Workers: runtime.GOMAXPROCS(0), Nodes: 0, Loop: "batch: one experiments.Run per process",
		InstsPerCell: o.Insts, Cells: perPass,
	}

	var setups, rss []float64
	var good []passOut
	timed := 0.0
	for i := 0; timed < o.Seconds || i < minPasses; i++ {
		co, err := spawn(childMatrixPass, o, i)
		if err != nil {
			return nil, err
		}
		p := co.Pass
		timed += p.PassS
		setups = append(setups, co.SetupS)
		rss = append(rss, co.RSSMiB)
		rep.Result.Attempted += perPass
		if p.Digest != ref || p.Cells != perPass {
			rep.Result.Failed += perPass
			rep.Result.Correct = false
			rep.Errors = append(rep.Errors, fmt.Sprintf("pass %d: matrix digest %.12s, want %.12s (%d/%d cells)", i, p.Digest, ref, p.Cells, perPass))
			continue
		}
		good = append(good, *p)
	}
	var cellMs, cps, rawCps, mips, probes []float64
	fast := fastest(good)
	for _, p := range fast {
		for _, ms := range p.CellMs {
			cellMs = append(cellMs, ms/p.scale())
		}
		cps = append(cps, float64(p.Cells)/p.PassS*p.scale())
		rawCps = append(rawCps, float64(p.Cells)/p.PassS)
		mips = append(mips, float64(p.Insts)/p.PassS/1e6*p.scale())
	}
	for _, p := range good {
		probes = append(probes, p.Probe/1e6)
	}
	rep.Samples["passes"] = len(setups)
	rep.Samples["fastest_passes"] = len(fast)
	rep.Samples["cells"] = len(cellMs)
	rep.Samples["setups"] = len(setups)
	rep.setEndToEnd(setups, median(cps), quantile(cellMs, 0.5), quantile(cellMs, 0.99), median(rss))
	rep.Metrics["sim_mips"] = metric{median(mips), "Minst/s"}
	rep.Metrics["raw_cells_per_s"] = metric{median(rawCps), "cells/s"}
	rep.Metrics["probe_msteps_per_s"] = metric{median(probes), "Msteps/s"}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("matrix times are scaled to a host-speed probe rate of %.0f Msteps/s; raw_cells_per_s is unscaled", probeRef/1e6),
		"cells_per_s and sim_mips are medians over the fastest quarter of passes; cell latency, pooled over those passes, is each cell's Reset+simulation time inside experiments.Run",
		"reference digest "+ref[:12]+"… for budget "+refKey(o))
	return rep, nil
}
