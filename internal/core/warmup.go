package core

import (
	"parrot/internal/branch"
	"parrot/internal/config"
	"parrot/internal/energy"
	"parrot/internal/filter"
	"parrot/internal/mem"
	"parrot/internal/ooo"
	"parrot/internal/tcache"
	"parrot/internal/tpred"
	"parrot/internal/workload"
)

// ResetStats zeroes all measurement state while keeping the machine warm:
// cache contents, predictor tables, trace cache, filters and in-flight work
// survive. Trace-driven studies measure steady state — the paper's 30–100M
// instruction traces amortize compulsory effects that would otherwise
// dominate shorter synthetic runs.
func (m *Machine) ResetStats() {
	if m.rec != nil {
		// Close the trailing warmup interval while the pre-reset counters
		// are still live, and stamp the measurement boundary.
		m.obsMeasureStart()
	}
	m.counts = energy.Counts{}
	m.countsHot = energy.Counts{}
	m.cold.Stats = ooo.Stats{}
	if m.model.Split {
		m.hot.Stats = ooo.Stats{}
	}
	m.hier.Prefetches = 0
	m.hier.L1I.Stats = mem.CacheStats{}
	m.hier.L1D.Stats = mem.CacheStats{}
	m.hier.L2.Stats = mem.CacheStats{}
	m.bp.Stats = branch.Stats{}
	m.btb.Stats = branch.Stats{}
	m.ras.Stats = branch.Stats{}
	if m.tp != nil {
		m.tp.Stats = tpred.Stats{}
	}
	if m.tc != nil {
		m.tc.Stats = tcache.Stats{}
	}
	if m.hotF != nil {
		m.hotF.Stats = filter.Stats{}
	}
	if m.blazeF != nil {
		m.blazeF.Stats = filter.Stats{}
	}
	m.clockStart = m.clock
	m.insts = 0
	m.hotInsts = 0
	m.coldInsts = 0
	m.traceAborts = 0
	m.abortedUops = 0
	m.optCount = 0
	m.optExecs = 0
	m.uopsBefore, m.uopsAfter = 0, 0
	m.critBefore, m.critAfter = 0, 0
	m.buildCount = 0
	m.hotSegments, m.coldSegments = 0, 0
	m.dynUopsOrig, m.dynUopsOpt = 0, 0
	m.dynCritOrig, m.dynCritOpt = 0, 0
	m.optSeen = nil
	m.diagColdResident, m.diagColdAbsent = 0, 0
	m.diagFetchStall, m.diagResolve = 0, 0
	// Reset per-trace execution counters so Figure 4.10 reflects the
	// measured window only.
	if m.tc != nil {
		for _, tr := range m.tc.Resident() {
			tr.Executions = 0
		}
	}
	if m.rec != nil {
		// Interval 0 of the measured window starts at the zeroed counters.
		m.obsRebase()
	}
}

// WarmupFraction is the share of each run used to warm caches, predictors
// and the trace subsystem before statistics are measured.
const WarmupFraction = 0.3

// RunWarm executes an application with the standard warmup protocol:
// the first WarmupFraction of the stream primes the machine, statistics
// reset, and the remainder is measured. Machines are drawn from (and
// returned to) the package machine pool, and the synthesized program is
// memoized per profile — repeated runs reuse fully-allocated structures.
// Pooled runs are bit-identical to fresh ones (the Reset protocol), which
// TestPooledMatchesFreshAllModels enforces.
func RunWarm(model config.Model, prof workload.Profile, n int) *Result {
	return DefaultPool.RunWarm(model, prof, n)
}

// RunWarm is RunWarm drawing its machine from this pool.
func (p *Pool) RunWarm(model config.Model, prof workload.Profile, n int) *Result {
	m := p.Get(model)
	defer p.Put(m)
	return RunWarmOn(m, prof, n)
}

// RunWarmOn is the warmup protocol on a caller-managed machine: m must be
// freshly constructed or Reset, and ownership stays with the caller (nothing
// is pooled or reset here). It is the building block for callers that hold a
// machine across many runs, such as the serving layer's workers.
func RunWarmOn(m *Machine, prof workload.Profile, n int) *Result {
	return runStream(m, prof, n, WarmupFraction)
}

// RunWarmFresh is RunWarm on a never-pooled, freshly constructed machine —
// the reference the determinism tests compare pooled runs against.
func RunWarmFresh(model config.Model, prof workload.Profile, n int) *Result {
	return RunWarmOn(New(model), prof, n)
}

// runStream runs n instructions of prof's stream (n <= 0 = the profile's
// default) on m, resetting statistics after the first warm share of them.
// A budget below one chunk is recorded as one chunk of exactly n, so the
// log's arena is sized to the run, not to chunkInsts.
func runStream(m *Machine, prof workload.Profile, n int, warm float64) *Result {
	if n <= 0 {
		n = prof.Instructions
	}
	src := workload.GetStream(workload.GenerateCached(prof), n)
	defer workload.PutStream(src)
	return m.runPooledLog(src, prof, int(float64(n)*warm), min(n, chunkInsts))
}
