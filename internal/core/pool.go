package core

import (
	"sync"

	"parrot/internal/config"
	"parrot/internal/energy"
	"parrot/internal/trace"
)

// Reset returns the machine to its just-constructed state while keeping
// every allocation: cache tag arrays, predictor tables, the trace cache,
// engine ring buffers, the dispatch queue and all slabs survive. A reset
// machine produces bit-identical results to a machine built fresh with
// New — the property the pooled-vs-fresh determinism tests enforce.
func (m *Machine) Reset() {
	m.hier.Reset()
	m.bp.Reset()
	m.btb.Reset()
	m.ras.Reset()
	m.cold.Reset()
	if m.model.Split {
		m.hot.Reset()
	}
	if m.tc != nil {
		// Harvest resident traces into the build slab before clearing.
		m.tc.Reset(func(tr *trace.Trace) { m.freeTraces = append(m.freeTraces, tr) })
	}
	if m.tp != nil {
		m.tp.Reset()
	}
	if m.hotF != nil {
		m.hotF.Reset()
	}
	if m.blazeF != nil {
		m.blazeF.Reset()
	}
	if m.optz != nil {
		m.optz.Reset()
	}

	m.counts = energy.Counts{}
	m.countsHot = energy.Counts{}

	// Timing state.
	m.clock, m.clockStart = 0, 0
	m.fetchStallUntil = 0
	m.pendingBranch = 0
	m.pendingEngine = nil
	m.lastLine = 0
	m.decCycle, m.decUsed, m.decComplexUsed = 0, 0, false
	m.supCycle, m.supUsed = 0, 0
	m.optBusyUntil = 0

	m.dqHead, m.dqTail = 0, 0
	m.pendingTraceInsts = m.pendingTraceInsts[:0]
	m.ptiHead = 0
	m.lastSegHot, m.lastDispatchHot = false, false
	m.switchStallUntil = 0

	// Accounting.
	m.insts, m.hotInsts, m.coldInsts = 0, 0, 0
	m.traceAborts, m.abortedUops = 0, 0
	m.optCount, m.optExecs = 0, 0
	m.uopsBefore, m.uopsAfter = 0, 0
	m.critBefore, m.critAfter = 0, 0
	m.buildCount = 0
	m.hotSegments, m.coldSegments = 0, 0
	m.dynUopsOrig, m.dynUopsOpt = 0, 0
	m.dynCritOrig, m.dynCritOpt = 0, 0
	clear(m.optSeen)

	m.diagFetchStall, m.diagResolve = 0, 0
	m.diagColdResident, m.diagColdAbsent = 0, 0

	// Observability: recorders are per-run (the component Resets above have
	// already detached the engine/cache/optimizer probes).
	m.rec = nil
	m.obsBase = obsBaseline{}
	m.obsNextIval = 0
	m.work = Work{}
}

// PoolStats counts pool traffic (exposed for the throughput benchmarks).
type PoolStats struct {
	Gets     uint64 // total Get calls
	Reuses   uint64 // Gets satisfied by a pooled machine
	Puts     uint64 // machines returned
	Discards uint64 // returns dropped because the per-model cap was reached
}

// Pool is an explicit machine pool: fully constructed machines keyed by
// their complete model configuration, reset on reuse. Pooling removes the
// dominant per-run allocation cost (cache tag arrays, predictor tables,
// engine ring buffers) from repeated simulations — the experiment matrix
// runs each of the 7 models across 44 applications, reusing at most
// parallelism machines per model instead of constructing 308.
//
// Machines are keyed by the full config.Model value, not just the model ID,
// so sensitivity sweeps that perturb one parameter under an unchanged ID
// can never receive a machine built for different hardware.
type Pool struct {
	mu   sync.Mutex
	free map[config.Model][]*Machine

	// MaxPerModel caps retained machines per configuration (0 = default 16).
	MaxPerModel int

	stats PoolStats
}

// DefaultPool serves the package-level Run helpers and the public facade;
// repeated parrot.Run calls transparently reuse machines through it.
var DefaultPool = NewPool()

// NewPool returns an empty machine pool.
func NewPool() *Pool {
	return &Pool{free: make(map[config.Model][]*Machine)}
}

// Get returns a machine for the model: a pooled one (reset) when available,
// otherwise a freshly constructed one.
func (p *Pool) Get(model config.Model) *Machine {
	p.mu.Lock()
	p.stats.Gets++
	if l := p.free[model]; len(l) > 0 {
		m := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[model] = l[:len(l)-1]
		p.stats.Reuses++
		p.mu.Unlock()
		m.Reset()
		return m
	}
	p.mu.Unlock()
	return New(model)
}

// Put returns a machine to the pool for later reuse. The machine must not
// be used by the caller afterwards.
func (p *Pool) Put(m *Machine) {
	if m == nil {
		return
	}
	cap := p.MaxPerModel
	if cap <= 0 {
		cap = 16
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Puts++
	if len(p.free[m.model]) >= cap {
		p.stats.Discards++
		return
	}
	p.free[m.model] = append(p.free[m.model], m)
}

// Prewarm constructs machines for the model ahead of demand until the pool
// retains n of them (bounded by MaxPerModel), so a serving fleet's first
// requests pay a Reset instead of full construction — cache tag arrays,
// predictor tables and engine ring buffers are the dominant cold-start
// cost. Construction happens outside the pool lock; concurrent traffic is
// unaffected.
func (p *Pool) Prewarm(model config.Model, n int) {
	cap := p.MaxPerModel
	if cap <= 0 {
		cap = 16
	}
	if n > cap {
		n = cap
	}
	for {
		p.mu.Lock()
		have := len(p.free[model])
		p.mu.Unlock()
		if have >= n {
			return
		}
		p.Put(New(model))
	}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Size returns the number of machines currently retained.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, l := range p.free {
		n += len(l)
	}
	return n
}
