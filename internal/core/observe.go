package core

import (
	"parrot/internal/energy"
	"parrot/internal/obs"
	"parrot/internal/trace"
)

// This file is the machine's side of the observability layer: attaching an
// obs.Recorder to every instrumented component, and driving the interval
// time series from the machine's own counters. All hooks sit behind a single
// `m.rec != nil` branch, so a machine without a recorder is bit-identical to
// (and as fast as) an uninstrumented one.

// obsBaseline snapshots the machine counters at an interval boundary, so the
// next CloseInterval can report exact deltas. Fields mirror the counters the
// time series exposes; energy counts are captured by value (small arrays).
type obsBaseline struct {
	clock     uint64
	insts     uint64
	hotInsts  uint64
	coldInsts uint64
	tcLookups uint64
	tcHits    uint64
	counts    energy.Counts
	countsHot energy.Counts
}

// Attach wires a recorder into every instrumented component and baselines
// the interval time series at the machine's current state. Recorders observe
// exactly one run: attach a fresh recorder per run, before feeding
// instructions. Machine Reset detaches it (observers are per-run).
func (m *Machine) Attach(rec *obs.Recorder) {
	m.rec = rec
	rec.Bind(&m.clock)

	m.cold.SetProbe(rec.Pipe(0))
	rec.Series.SetupLane(0, m.cold.Config().ROBSize, m.cold.Config().IQSize)
	if m.split {
		m.hot.SetProbe(rec.Pipe(1))
		rec.Series.SetupLane(1, m.hot.Config().ROBSize, m.hot.Config().IQSize)
	}
	if m.tc != nil {
		m.tc.SetProbe(rec)
	}
	if m.optz != nil {
		m.optz.SetProbe(rec)
	}
	m.obsRebase()
}

// Recorder returns the attached recorder (nil when observability is off).
func (m *Machine) Recorder() *obs.Recorder { return m.rec }

// obsCounts synthesizes the complete current energy-event vectors — the
// machine's own counters plus the engine- and memory-derived events that
// collect folds in only at end of run. Snapshot deltas of these vectors
// price each interval exactly like collect prices the whole run.
func (m *Machine) obsCounts() (cold, hot energy.Counts) {
	cold, hot = m.counts, m.countsHot
	engineEvents(&m.cold.Stats, &cold)
	if m.split {
		engineEvents(&m.hot.Stats, &hot)
	}
	cold.Add(energy.EvFetchLine, m.hier.L1I.Stats.Accesses)
	cold.Add(energy.EvL1DAccess, m.hier.L1D.Stats.Accesses)
	cold.Add(energy.EvL1DMiss, m.hier.L1D.Stats.Misses)
	cold.Add(energy.EvL2Access, m.hier.L2.Stats.Accesses)
	cold.Add(energy.EvL2Access, m.hier.Prefetches)
	cold.Add(energy.EvMemAccess, m.hier.L2.Stats.Misses)
	return cold, hot
}

// obsSnapshot captures the current counter state.
func (m *Machine) obsSnapshot() obsBaseline {
	b := obsBaseline{
		clock:     m.clock,
		insts:     m.insts,
		hotInsts:  m.hotInsts,
		coldInsts: m.coldInsts,
	}
	b.counts, b.countsHot = m.obsCounts()
	if m.tc != nil {
		b.tcLookups = m.tc.Stats.Lookups
		b.tcHits = m.tc.Stats.Hits
	}
	return b
}

// obsRebase re-baselines the interval sampler at the current machine state
// (attach time, and again after the statistics reset at the warmup
// boundary).
func (m *Machine) obsRebase() {
	m.obsBase = m.obsSnapshot()
	m.obsNextIval = m.insts + uint64(m.rec.Opts.IntervalInsts)
}

// obsTick samples occupancy for one executed cycle and closes the interval
// when the committed-instruction boundary has been crossed. Called from tick
// after the engine cycles, so boundary checks see this cycle's commits.
func (m *Machine) obsTick() {
	s := m.rec.Series
	s.Sample(1, false, m.cold.InFlight(), m.cold.IQLen())
	if m.split {
		s.SampleHot(1, m.hot.InFlight(), m.hot.IQLen())
	}
	if m.insts >= m.obsNextIval {
		m.obsCloseInterval(false)
	}
}

// obsSkip attributes a fast-forwarded idle window of k cycles to the current
// interval. The occupancy of a skipped window is constant by construction —
// that is what made it skippable — so one weighted sample covers all k
// cycles exactly, and no commits happen inside the window, so no interval
// boundary can be crossed.
func (m *Machine) obsSkip(k uint64) {
	s := m.rec.Series
	s.Sample(k, true, m.cold.InFlight(), m.cold.IQLen())
	if m.split {
		s.SampleHot(k, m.hot.InFlight(), m.hot.IQLen())
	}
}

// obsCloseInterval finalizes the current time-series interval with exact
// counter deltas since the last boundary, then re-baselines.
func (m *Machine) obsCloseInterval(warmup bool) {
	base := &m.obsBase
	iv := obs.Interval{
		StartCycle: base.clock,
		EndCycle:   m.clock,
		Insts:      m.insts - base.insts,
		HotInsts:   m.hotInsts - base.hotInsts,
		ColdInsts:  m.coldInsts - base.coldInsts,
		Warmup:     warmup,
	}
	if m.tc != nil {
		iv.TCLookups = m.tc.Stats.Lookups - base.tcLookups
		iv.TCHits = m.tc.Stats.Hits - base.tcHits
	}
	cold, hot := m.obsCounts()
	var dc, dh energy.Counts
	for i := range dc {
		dc[i] = cold[i] - base.counts[i]
		dh[i] = hot[i] - base.countsHot[i]
	}
	iv.DynEnergy = m.emodel.Energy(&dc) + m.ehot.Energy(&dh)
	bc := m.emodel.Breakdown(&dc)
	bh := m.ehot.Breakdown(&dh)
	for i := range iv.Energy {
		iv.Energy[i] = bc[i] + bh[i]
	}
	m.rec.Series.CloseInterval(iv)
	m.obsBase = m.obsSnapshot()
	m.obsNextIval = m.insts + uint64(m.rec.Opts.IntervalInsts)
}

// obsMeasureStart closes the trailing warmup interval and marks everything
// recorded so far as warmup. Called at the top of ResetStats, while the
// pre-reset counters are still live; ResetStats re-baselines afterwards.
func (m *Machine) obsMeasureStart() {
	s := m.rec.Series
	for i := range s.Intervals {
		s.Intervals[i].Warmup = true
	}
	if m.clock > m.obsBase.clock {
		m.obsCloseInterval(true)
	}
	m.rec.MeasureStart()
}

// obsFinish closes the trailing partial interval and finalizes the recorder
// (residency accounting). Called once, after drain.
func (m *Machine) obsFinish() {
	if m.clock > m.obsBase.clock {
		m.obsCloseInterval(false)
	}
	m.rec.Finalize()
}

// obsSegment records the observable outcome of one segment's fetch
// selection: the trace-predictor decision, the segment itself, and any
// cold<->hot pipeline switch. pred/predOK are the raw predictor outputs; hot
// is the final selector decision; called before lastSegHot is updated.
func (m *Machine) obsSegment(seg *trace.Segment, key, pred uint64, predOK, hot bool) {
	if !predOK {
		pred = 0
	}
	m.rec.TPred(pred, key, predOK && pred == key)
	m.rec.Segment(seg.TID, seg.NumInsts(), seg.Uops, hot)
	if hot != m.lastSegHot {
		m.rec.PipeSwitch(seg.TID, hot)
	}
}
