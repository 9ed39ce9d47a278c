package main

import (
	"math/rand"
	"sync"
	"time"
)

// The host-speed probe. On a shared VM other tenants' load slows the cores
// and caches by up to a third for minutes at a time, while steal time stays
// near zero, so CPU time drifts as much as wall time. A fixed workload in
// this package, which no change to the simulator can alter, measures the
// host's speed next to each matrix pass, and the matrix times are scaled to
// the reference rate probeRef. The probe walks a cache-sized random cycle
// with dependent arithmetic and a data-dependent branch. Replayed over 118
// passes as 40 s runs, scaling by it cut the run-to-run spread of matrix
// throughput from 22% to 9%; a walk over a table sixteen times larger,
// which misses in cache, made the spread worse.

const (
	// probeEntries sizes each CPU's cycle: 128 KiB of uint32, about an L2.
	probeEntries = 1 << 15
	// probeTime is how long one reading runs.
	probeTime = 150 * time.Millisecond
	// probeRef is the probe rate, in steps/s over all CPUs, that matrix
	// times are scaled to: about what a quiet 2-CPU host reads.
	probeRef   = 350e6
	probeChunk = 4096
)

// probe holds one random cycle per CPU, built once so that readings time
// only the walk.
type probe struct{ cycles [][]uint32 }

func newProbe(cpus int) *probe {
	p := &probe{cycles: make([][]uint32, cpus)}
	rng := rand.New(rand.NewSource(1))
	for c := range p.cycles {
		next := make([]uint32, probeEntries)
		for i := range next {
			next[i] = uint32(i)
		}
		for i := len(next) - 1; i > 0; i-- { // Sattolo's shuffle: one cycle
			j := rng.Intn(i)
			next[i], next[j] = next[j], next[i]
		}
		p.cycles[c] = next
	}
	return p
}

// rate walks every CPU's cycle for probeTime and returns steps per second.
func (p *probe) rate() float64 {
	steps := make([]int, len(p.cycles))
	sink := make([]uint64, len(p.cycles))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(probeTime)
	for c, next := range p.cycles {
		wg.Add(1)
		go func(c int, next []uint32) {
			defer wg.Done()
			at, acc := uint32(0), uint64(0)
			for time.Now().Before(deadline) {
				for k := 0; k < probeChunk; k++ {
					at = next[at]
					acc = acc*6364136223846793005 + uint64(at)
					if acc&1 == 0 {
						acc ^= acc >> 29
					}
				}
				steps[c] += probeChunk
			}
			sink[c] = acc // keeps the walk from being optimized away
		}(c, next)
	}
	wg.Wait()
	total := 0
	for _, s := range steps {
		total += s
	}
	return float64(total) / since(start)
}
