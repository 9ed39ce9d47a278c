// Package core assembles the PARROT machine (§2.3): the decoupled cold and
// hot subsystems, the fetch selector arbitrating between branch- and
// trace-predictor, the foreground execution pipelines, and the background
// post-processing phases — TID selection, hot filtering, trace construction
// and insertion on the cold side; blazing filtering, dynamic optimization
// and trace-cache write-back on the hot side.
//
// The same machine executes all seven study configurations: the baseline
// models (N, W) simply have the trace subsystem disabled, and the split
// model (TOS) instantiates a second, wide execution engine for the hot
// pipeline with a register state-switch penalty between the cores.
package core

import (
	"fmt"

	"parrot/internal/branch"
	"parrot/internal/config"
	"parrot/internal/energy"
	"parrot/internal/filter"
	"parrot/internal/isa"
	"parrot/internal/mem"
	"parrot/internal/obs"
	"parrot/internal/ooo"
	"parrot/internal/opt"
	"parrot/internal/tcache"
	"parrot/internal/tpred"
	"parrot/internal/trace"
	"parrot/internal/workload"
)

// cacheLineMask aligns instruction addresses to fetch lines.
const cacheLineMask = ^uint64(63)

// dispatchItem is one decoded uop waiting between the front-ends and the
// rename/dispatch stage. Uops travel by value: the dispatch queue is a
// preallocated ring of pointer-free items, so the steady-state tick loop
// never touches the heap and the GC never scans it.
type dispatchItem struct {
	uop      isa.Uop
	memAddr  uint64
	lastUop  bool // last uop of its macro-instruction
	traceEnd bool // last uop of an atomic trace
	hot      bool // destined for the hot core (split models)
	resolve  bool // fetch is stalled until this uop executes (mispredict)
}

// Machine is one simulated processor instance.
type Machine struct {
	model config.Model

	// Hoisted model parameters: the per-cycle and per-segment paths read
	// these fields instead of re-extracting them from the (large) model
	// struct on every call.
	split          bool
	traceCache     bool
	coldWidth      int
	hotWidth       int
	dqLimit        int // cold decode back-pressure threshold
	hotDQLimit     int // hot-supply back-pressure threshold
	traceFetchUops int
	frontDepth     uint64
	switchPenalty  uint64

	hier *mem.Hierarchy
	bp   *branch.Predictor
	btb  *branch.BTB
	ras  *branch.RAS

	cold *ooo.Engine
	hot  *ooo.Engine // == cold for unified models

	tc     *tcache.Cache
	tp     *tpred.Predictor
	hotF   *filter.CounterCache
	blazeF *filter.CounterCache
	optz   *opt.Optimizer

	emodel *energy.Model
	ehot   *energy.Model

	counts    energy.Counts // priced with emodel
	countsHot energy.Counts // priced with ehot (split models only)

	// Timing state.
	clock           uint64
	clockStart      uint64 // clock value at the last statistics reset
	fetchStallUntil uint64
	pendingBranch   ooo.Handle
	pendingEngine   *ooo.Engine
	lastLine        uint64
	decCycle        uint64
	decUsed         int
	decComplexUsed  bool
	supCycle        uint64
	supUsed         int
	optBusyUntil    uint64

	// dq is the dispatch queue: a power-of-two ring buffer of value-typed
	// items. It grows (rarely, by doubling) only until the high-water mark
	// of a run; in steady state pushes and pops are allocation-free.
	dq     []dispatchItem
	dqHead uint64
	dqTail uint64

	// pendingTraceInsts credits committed atomic traces with instruction
	// counts; consumed FIFO via ptiHead and compacted when drained.
	pendingTraceInsts []int
	ptiHead           int

	lastSegHot       bool
	lastDispatchHot  bool
	switchStallUntil uint64

	// Reused scratch: per-hot-segment memory addresses, and a slab of
	// traces evicted from the trace cache whose storage the next Build
	// reuses.
	addrScratch []uint64
	freeTraces  []*trace.Trace

	// Accounting.
	insts        uint64
	hotInsts     uint64
	coldInsts    uint64
	traceAborts  uint64
	abortedUops  uint64
	optCount     uint64
	optExecs     uint64
	uopsBefore   uint64
	uopsAfter    uint64
	critBefore   uint64
	critAfter    uint64
	buildCount   uint64
	hotSegments  uint64
	coldSegments uint64

	// Execution-weighted optimizer impact (Figure 4.9): sums over every
	// hot execution of an optimized trace.
	dynUopsOrig uint64
	dynUopsOpt  uint64
	dynCritOrig uint64
	dynCritOpt  uint64
	optSeen     map[uint64]struct{} // distinct optimized traces executed

	// Diagnostic cycle attribution (development aid; cheap to keep).
	diagFetchStall   uint64 // cycles with fetch stalled on a timer
	diagResolve      uint64 // cycles waiting for a mispredicted CTI to resolve
	diagColdResident uint64 // segments run cold although their trace was resident
	diagColdAbsent   uint64 // segments run cold with no resident trace

	// Observability (nil when disabled; every hook is one predictable
	// branch, see observe.go).
	rec         *obs.Recorder
	obsBase     obsBaseline
	obsNextIval uint64

	work Work
}

// Work counts the simulation kernel's own effort rather than the simulated
// machine's: ticks run one by one, cycles fast-forwarded in proven-idle
// windows, and uops handed to the engines. The counts depend on the kernel
// and the inputs, never on the host, so a lost fast-forward shows as a rise
// in Ticks with no timing noise. They are not part of a Result or a digest.
type Work struct {
	Ticks      uint64 `json:"ticks"`
	Skipped    uint64 `json:"skipped_cycles"`
	Dispatches uint64 `json:"dispatches"`
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.Ticks += o.Ticks
	w.Skipped += o.Skipped
	w.Dispatches += o.Dispatches
}

// Work returns the kernel work done since construction or the last Reset,
// warm-up included.
func (m *Machine) Work() Work { return m.work }

// New builds a machine for the given model configuration.
func New(model config.Model) *Machine {
	m := &Machine{
		model:  model,
		hier:   mem.NewHierarchy(model.Mem),
		bp:     branch.NewPredictor(model.BPEntries, model.BPHistBits),
		btb:    branch.NewBTB(model.BTBEntries),
		ras:    branch.NewRAS(model.RASDepth),
		emodel: energy.NewModel(model.EnergyParams()),
		dq:     make([]dispatchItem, 128), // power of two; grows on demand

		split:          model.Split,
		traceCache:     model.TraceCache,
		coldWidth:      model.Core.Width,
		hotWidth:       model.Core.Width,
		dqLimit:        4 * model.Core.Width,
		hotDQLimit:     4 * model.TraceFetchUops,
		traceFetchUops: model.TraceFetchUops,
		frontDepth:     uint64(model.FrontDepth),
		switchPenalty:  uint64(model.SwitchPenalty),
	}
	if model.BPHistBits == 0 {
		m.bp = branch.NewPredictor(model.BPEntries, 12)
	}
	// The memory hierarchy is the engines' concrete latency provider: no
	// per-machine closure on the load/store issue path, and the engines can
	// size their completion wheels from its worst-case latency.
	m.cold = ooo.NewWithMem(model.Core, m.hier)
	m.hot = m.cold
	m.ehot = m.emodel
	if model.Split {
		m.hot = ooo.NewWithMem(model.HotCore, m.hier)
		m.ehot = energy.NewModel(model.HotEnergyParams())
		m.hotWidth = model.HotCore.Width
	}
	if model.TraceCache {
		m.tc = tcache.New(model.TCFrames, model.TCWays)
		m.tp = tpred.New(model.TPredEntries)
		m.hotF = filter.New(model.HotEntries, model.HotWays, model.HotThreshold)
		if model.Optimize {
			m.blazeF = filter.New(model.BlazeEntries, model.BlazeWays, model.BlazeThreshold)
			m.optz = opt.New(model.OptConfig)
		}
	}
	return m
}

// dqLen returns the number of queued dispatch items.
func (m *Machine) dqLen() int { return int(m.dqTail - m.dqHead) }

// dqAlloc reserves the next ring slot and returns it zeroed, so the decoders
// fill dispatch items in place instead of building them locally and copying
// them into the ring. The ring doubles when full (rare: the queue is bounded
// by front-end back-pressure plus one instruction's uops).
func (m *Machine) dqAlloc() *dispatchItem {
	if m.dqLen() == len(m.dq) {
		m.dqGrow()
	}
	it := &m.dq[m.dqTail&uint64(len(m.dq)-1)]
	m.dqTail++
	*it = dispatchItem{}
	return it
}

// dqGrow doubles the ring, re-laying the live window out from index 0.
func (m *Machine) dqGrow() {
	bigger := make([]dispatchItem, 2*len(m.dq))
	n := m.dqLen()
	mask := uint64(len(m.dq) - 1)
	for i := 0; i < n; i++ {
		bigger[i] = m.dq[(m.dqHead+uint64(i))&mask]
	}
	m.dq = bigger
	m.dqHead = 0
	m.dqTail = uint64(n)
}

// dqFront returns the oldest queued item. Valid only while dqLen() > 0.
func (m *Machine) dqFront() *dispatchItem {
	return &m.dq[m.dqHead&uint64(len(m.dq)-1)]
}

// dqPop removes the oldest queued item.
func (m *Machine) dqPop() { m.dqHead++ }

// frontBlocked reports whether the cold front-end must stall this cycle.
func (m *Machine) frontBlocked() bool {
	if m.clock < m.fetchStallUntil {
		return true
	}
	if m.pendingBranch != 0 {
		if m.pendingEngine.Done(m.pendingBranch) {
			// Resolved: redirect costs a front-pipeline refill.
			m.pendingBranch = 0
			m.fetchStallUntil = m.clock + m.frontDepth
		}
		return true
	}
	if m.dqLen() > m.dqLimit {
		return true // decode back-pressure
	}
	return false
}

// frontStall advances the machine until the front-end unblocks.
func (m *Machine) frontStall() {
	for m.frontBlocked() {
		m.step()
	}
}

// step advances the machine by one tick, or by a whole provably idle window
// in one jump. Skipped cycles are bit-identical to the no-op ticks they
// replace: every counter (engine Stats.Cycles and stall counts, the machine
// clock, the diagnostic stall attribution, the recorder's stall events)
// advances exactly as if each cycle had been executed.
func (m *Machine) step() {
	if k := m.idleCycles(); k > 0 {
		m.skipCycles(k)
		return
	}
	m.tick()
}

// idleCycles returns how many upcoming ticks are provably no-ops, or 0 when
// the next tick may do real work. A tick is a no-op iff dispatch cannot
// progress — the queue is empty, or its head is held back by a full ROB or
// issue queue (blockedOn) — and every engine's next event (completion,
// commit, issue) lies beyond it: until that event no ROB or IQ entry frees.
// The count is additionally capped at the front-end stall timer so
// frontBlocked is re-evaluated on exactly the cycle it could flip.
func (m *Machine) idleCycles() uint64 {
	if m.dqLen() > 0 && m.blockedOn() == nil {
		return 0
	}
	const never = ^uint64(0)
	t := m.cold.NextEventAt()
	if m.split {
		if th := m.hot.NextEventAt(); th < t {
			t = th
		}
	}
	var k uint64
	switch {
	case t == never:
		k = never
	case t > m.clock+1:
		k = t - m.clock - 1 // the tick reaching t must run for real
	default:
		return 0
	}
	// frontBlocked changes machine state only at the stall-timer expiry:
	// that is when the timer check stops masking the pending-branch Done
	// test (and when a pure timer stall ends). Never skip across it, so the
	// front-end re-evaluates on exactly that cycle.
	if m.fetchStallUntil > m.clock {
		if lim := m.fetchStallUntil - m.clock; lim < k {
			k = lim
		}
	}
	if k == never {
		// Engines empty and no stall timer running: the next tick may do
		// real work; be conservative.
		return 0
	}
	return k
}

// blockedOn returns the engine whose full ROB or issue queue holds back the
// dispatch-queue head, or nil when the head can dispatch or waits on a
// split-core register switch (whose countdown changes state). The queue
// must be non-empty.
func (m *Machine) blockedOn() *ooo.Engine {
	it := m.dqFront()
	eng := m.cold
	if m.split {
		if it.hot != m.lastDispatchHot {
			return nil
		}
		if it.hot {
			eng = m.hot
		}
	}
	if eng.CanDispatch() {
		return nil
	}
	return eng
}

// noteStalls records k dispatch cycles lost to eng's full ROB or IQ.
func (m *Machine) noteStalls(eng *ooo.Engine, hot bool, k uint64) {
	rob := eng.InFlight() >= eng.Config().ROBSize
	eng.NoteStalls(rob, k)
	if m.rec != nil {
		m.rec.Stall(rob, m.split && hot, k)
	}
}

// skipCycles advances clocks and per-cycle diagnostics by k cycles in one
// step. Valid only for windows idleCycles proved to be no-ops.
func (m *Machine) skipCycles(k uint64) {
	m.work.Skipped += k
	var fs uint64
	if m.fetchStallUntil > m.clock+1 {
		fs = m.fetchStallUntil - m.clock - 1
		if fs > k {
			fs = k
		}
	}
	m.diagFetchStall += fs
	if m.pendingBranch != 0 {
		m.diagResolve += k - fs
	}
	m.clock += k
	if m.dqLen() > 0 {
		// A dispatch-blocked window: each skipped tick records one stall.
		m.noteStalls(m.blockedOn(), m.dqFront().hot, k)
	}
	m.cold.Skip(k)
	if m.split {
		m.hot.Skip(k)
	}
	if m.rec != nil {
		m.obsSkip(k)
	}
}

// tick advances the machine one cycle: dispatch, then engine clocks.
func (m *Machine) tick() {
	m.work.Ticks++
	m.clock++
	if m.clock < m.fetchStallUntil {
		m.diagFetchStall++
	} else if m.pendingBranch != 0 {
		m.diagResolve++
	}

	// Dispatch from the queue into the engines.
	coldBudget := m.coldWidth
	hotBudget := m.hotWidth
	for m.dqLen() > 0 {
		it := m.dqFront()
		eng := m.cold
		budget := &coldBudget
		if m.split && it.hot {
			eng = m.hot
			budget = &hotBudget
		}
		if m.split && it.hot != m.lastDispatchHot {
			// Register state switch between the split cores.
			if m.switchStallUntil == 0 {
				m.switchStallUntil = m.clock + m.switchPenalty
				m.countsHot.Add(energy.EvStateSwitch, 1)
			}
			if m.clock < m.switchStallUntil {
				break
			}
			m.switchStallUntil = 0
			m.lastDispatchHot = it.hot
		}
		if *budget == 0 || !eng.CanDispatch() {
			if *budget > 0 {
				m.noteStalls(eng, it.hot, 1)
			}
			break
		}
		m.work.Dispatches++
		h := eng.Dispatch(&it.uop, it.memAddr, it.lastUop, it.traceEnd)
		if it.resolve {
			m.pendingBranch = h
			m.pendingEngine = eng
		}
		*budget--
		m.dqPop()
	}

	// Engine cycles.
	_, ci, te := m.cold.Cycle()
	m.insts += uint64(ci)
	m.creditTraces(te)
	if m.split {
		_, ci, te = m.hot.Cycle()
		m.insts += uint64(ci)
		m.creditTraces(te)
	}
	if m.rec != nil {
		m.obsTick()
	}
}

// creditTraces credits committed atomic traces with their instruction
// counts. The pending list is consumed FIFO through ptiHead and its storage
// is reused once drained.
func (m *Machine) creditTraces(traceEnds int) {
	for i := 0; i < traceEnds; i++ {
		if m.ptiHead == len(m.pendingTraceInsts) {
			panic("core: trace commit without pending credit")
		}
		m.insts += uint64(m.pendingTraceInsts[m.ptiHead])
		m.ptiHead++
	}
	if m.ptiHead > 0 && m.ptiHead == len(m.pendingTraceInsts) {
		m.pendingTraceInsts = m.pendingTraceInsts[:0]
		m.ptiHead = 0
	}
}

// InstSource supplies a committed dynamic instruction stream. The synthetic
// workload walker implements it; so does the trace-file reader, which lets
// the simulator replay externally captured streams.
type InstSource interface {
	Next() (workload.DynInst, bool)
}

// Run executes n dynamic instructions of the application with no warm-up
// window and returns the collected result. Passing n <= 0 uses the
// profile's default length.
func Run(model config.Model, prof workload.Profile, n int) *Result {
	return runStream(New(model), prof, n, 0)
}

// finish ends a run: it empties the dispatch queue and both pipelines,
// fast-forwarding idle stretches (e.g. a last long-latency load) in one
// jump, and collects the result.
func (m *Machine) finish(prof workload.Profile) *Result {
	for m.dqLen() > 0 || m.cold.InFlight() > 0 || (m.split && m.hot.InFlight() > 0) {
		m.step()
	}
	if m.rec != nil {
		m.obsFinish()
	}
	return m.collect(prof)
}

// execSegment runs one selection segment through the fetch selector and the
// appropriate pipeline, then performs the background phases. An attached
// recorder first sees the selector's decisions for the segment, which the
// log carries (TID, counts, joined units).
func (m *Machine) execSegment(seg *trace.Segment) {
	if m.rec != nil {
		m.rec.Selected(seg)
	}
	if !m.traceCache {
		if m.rec != nil {
			m.rec.Segment(seg.TID, seg.NumInsts(), seg.Uops, false)
		}
		m.execCold(seg)
		return
	}

	key := seg.TID.Key()
	pred, predOK := m.tp.Predict()
	m.counts.Add(energy.EvTPredLookup, 1)

	var tr *trace.Trace
	hot := false
	switch {
	case predOK && pred == key:
		m.counts.Add(energy.EvTCLookup, 1)
		if t, hit := m.tc.Lookup(key); hit && m.traceMatches(t, seg) {
			hot = true
			tr = t
		}
	case predOK:
		// The fetch selector chose the hot pipeline for the wrong TID: the
		// predicted trace starts executing and aborts on a failed assert.
		m.counts.Add(energy.EvTCLookup, 1)
		if t, hit := m.tc.Lookup(pred); hit {
			m.traceAbort(t)
		}
	default:
		// Lower-priority path of the fetch selector (§2.3): with no
		// confident trace prediction, the trace cache is indexed by fetch
		// address plus the branch predictor's multiple-branch directions,
		// Rotenberg-style. A resident trace under mispredicted directions
		// starts and aborts.
		bpTID := trace.TID{Start: seg.TID.Start}
		for i := range seg.Insts {
			in := seg.Insts[i].Inst
			if in.Kind == isa.KindBranch {
				bpTID = bpTID.WithDir(m.bp.Predict(in.PC))
				m.counts.Add(energy.EvBPLookup, 1)
			}
		}
		bpKey := bpTID.Key()
		m.counts.Add(energy.EvTCLookup, 1)
		if bpKey == key {
			if t, hit := m.tc.Lookup(key); hit && m.traceMatches(t, seg) {
				hot = true
				tr = t
			}
		} else if t, hit := m.tc.Lookup(bpKey); hit {
			m.traceAbort(t)
		}
	}
	m.tp.Train(key, pred, predOK)
	m.counts.Add(energy.EvTPredUpdate, 1)

	if m.rec != nil {
		m.obsSegment(seg, key, pred, predOK, hot)
	}

	if hot {
		m.hotSegments++
		m.execHot(seg, tr)
	} else {
		m.coldSegments++
		m.execCold(seg)
	}
	m.lastSegHot = hot

	m.background(seg, key, hot, tr)
}

// traceMatches guards against TID hash collisions and stale frames: the
// resident trace must describe exactly this dynamic segment.
func (m *Machine) traceMatches(tr *trace.Trace, seg *trace.Segment) bool {
	return tr.NumInsts == seg.NumInsts() && tr.MemOps == seg.MemUops
}

// traceAbort models a trace misprediction: the wrongly predicted trace
// executes until its first failing assert, the accumulated state is flushed
// and the architectural state at trace start restored (§2.3).
func (m *Machine) traceAbort(tr *trace.Trace) {
	if m.rec != nil {
		m.rec.TraceAbort(tr.TID)
	}
	m.traceAborts++
	wasted := uint64(len(tr.Uops) / 2)
	m.abortedUops += wasted
	m.countsHot.Add(energy.EvTCReadUop, wasted)
	m.countsHot.Add(energy.EvALU, wasted/2) // partial wrong-path execution
	m.counts.Add(energy.EvFlushRecovery, 1)
	m.fetchStallUntil = maxU64(m.fetchStallUntil, m.clock+m.frontDepth+wasted/4)
}

// background performs the post-processing phases on the committed segment.
func (m *Machine) background(seg *trace.Segment, key uint64, hot bool, tr *trace.Trace) {
	if hot {
		tr.Executions++
		if tr.Optimized {
			m.optExecs++
			m.dynUopsOrig += uint64(tr.OrigUops)
			m.dynUopsOpt += uint64(len(tr.Uops))
			m.dynCritOrig += uint64(tr.OrigCritPath)
			m.dynCritOpt += uint64(tr.OptCritPath)
			if m.optSeen == nil {
				m.optSeen = make(map[uint64]struct{})
			}
			m.optSeen[key] = struct{}{}
		} else if m.model.Optimize {
			m.counts.Add(energy.EvBlazeFilter, 1)
			if _, promoted := m.blazeF.Bump(key); promoted {
				if m.rec != nil {
					m.rec.BlazePromote(tr.TID)
				}
				m.optimizeTrace(key, tr)
			}
		}
		return
	}

	// Cold side: TID selection trains the hot filter; promotion constructs
	// the trace and inserts it into the trace cache.
	if m.tc.Probe(key) {
		m.diagColdResident++
		return
	}
	m.diagColdAbsent++
	m.counts.Add(energy.EvHotFilter, 1)
	if _, promoted := m.hotF.Bump(key); promoted {
		if m.rec != nil {
			m.rec.HotPromote(seg.TID)
		}
		t := trace.BuildInto(m.takeFreeTrace(), seg)
		if ev := m.tc.Insert(t); ev != nil {
			m.freeTraces = append(m.freeTraces, ev)
		}
		m.buildCount++
		m.counts.Add(energy.EvTraceBuildUop, uint64(len(t.Uops)))
		m.counts.Add(energy.EvTCWriteUop, uint64(len(t.Uops)))
	}
}

// takeFreeTrace pops a recycled trace from the slab of evicted traces, or
// returns nil when none is available (BuildInto then allocates).
func (m *Machine) takeFreeTrace() *trace.Trace {
	n := len(m.freeTraces)
	if n == 0 {
		return nil
	}
	t := m.freeTraces[n-1]
	m.freeTraces[n-1] = nil
	m.freeTraces = m.freeTraces[:n-1]
	return t
}

// optimizeTrace runs the dynamic optimizer on a blazing trace and writes it
// back to the trace cache.
func (m *Machine) optimizeTrace(key uint64, tr *trace.Trace) {
	if m.clock < m.optBusyUntil {
		// The non-pipelined optimizer is busy; let the trace re-promote on
		// a later execution.
		m.blazeF.Forget(key)
		return
	}
	m.optBusyUntil = m.clock + opt.LatencyCycles
	before := len(tr.Uops)
	if m.rec != nil {
		m.rec.OptimizeStart(tr.TID)
	}
	res := m.optz.Optimize(tr)
	if m.rec != nil {
		m.rec.OptimizeEnd(tr.TID, res.UopsBefore, res.UopsAfter,
			res.CritBefore, res.CritAfter)
	}
	m.tc.Insert(tr) // write-back (replaces in place)
	m.optCount++
	m.uopsBefore += uint64(res.UopsBefore)
	m.uopsAfter += uint64(res.UopsAfter)
	m.critBefore += uint64(res.CritBefore)
	m.critAfter += uint64(res.CritAfter)
	// Optimizer datapath: several analysis/rewrite passes over the trace.
	m.counts.Add(energy.EvOptimizeUop, uint64(before)*5)
	m.counts.Add(energy.EvTCWriteUop, uint64(len(tr.Uops)))
}

func (m *Machine) String() string {
	return fmt.Sprintf("machine(%s)", m.model.ID)
}
