// Package obs is the simulator's observability layer: a probe bus, per-uop
// pipeline lifecycle capture, phase-sampled interval time series and
// per-trace biographies, with exporters for JSON/CSV artifacts and the
// Kanata / Chrome-trace-event pipeline visualization formats.
//
// The layer is zero-cost when disabled. Instrumented components hold a nil
// probe pointer by default; every instrumentation point is a single
// predictable `probe != nil` branch on the hot path, so a probes-off build
// is bit-identical to an uninstrumented one and its steady-state throughput
// is unchanged (the CI digest check and the simbench perf gate both enforce
// this). When probes are attached, recording is slab-backed: events append
// into chunked preallocated arrays, never into per-event allocations.
//
// The package sits below the machine layers: core, ooo, tcache and opt
// all call into obs (directly or through small local probe interfaces),
// and obs imports none of them back except the leaf packages isa, trace,
// energy and metrics.
package obs

import (
	"parrot/internal/energy"
	"parrot/internal/metrics"
	"parrot/internal/trace"
)

// Kind enumerates probe-bus event kinds.
type Kind uint8

// Probe-bus event kinds. Payload fields A and B are kind-specific and
// documented per constant.
const (
	// KSegment: one selection segment entered execution. A = TID key,
	// B = uop count. Lane 1 when it ran hot, 0 cold.
	KSegment Kind = iota
	// KPipeSwitch: the fetch selector switched between the cold and hot
	// pipelines. Lane is the destination (1 = hot). A = TID key.
	KPipeSwitch
	// KTPred: one trace-predictor decision. A = predicted key (0 = no
	// confident prediction), B = actual key. Lane 1 when the prediction was
	// confident and correct.
	KTPred
	// KTCHit / KTCMiss: trace-cache lookup outcome. A = TID key.
	KTCHit
	KTCMiss
	// KTCInsert: trace insert (B = uop count); Lane 1 marks an optimizer
	// write-back replacing a resident trace.
	KTCInsert
	// KTCEvict: trace eviction. A = TID key of the evicted trace.
	KTCEvict
	// KHotPromote / KBlazePromote: filter promotions. A = TID key.
	KHotPromote
	KBlazePromote
	// KOptimize: one optimizer invocation finished. A = TID key,
	// B = uops-before<<32 | uops-after.
	KOptimize
	// KOptPass: one optimizer pass over a trace. A = pass ordinal within the
	// invocation, B = uops-before<<32 | uops-after.
	KOptPass
	// KTraceAbort: a mispredicted trace started and assert-flushed.
	// A = TID key of the aborted trace.
	KTraceAbort
	// KStallROB / KStallIQ: a dispatch cycle lost to a full ROB / IQ.
	// Lane is the engine (0 cold, 1 hot).
	KStallROB
	KStallIQ
	// KMeasureStart: warmup ended and statistics were reset.
	KMeasureStart
	// KSelectEmit: the trace selector finalized a segment (reported from
	// the selection log just before the segment executes). A = TID key,
	// B = uops<<32 | joined.
	KSelectEmit
	// KSelectJoin: the selector joined an identical consecutive unit into
	// the pending segment (loop unrolling). A = TID key, B = join count.
	KSelectJoin
	numKinds
)

var kindNames = [numKinds]string{
	"segment", "pipe-switch", "tpred", "tc-hit", "tc-miss", "tc-insert",
	"tc-evict", "hot-promote", "blaze-promote", "optimize", "opt-pass",
	"trace-abort", "stall-rob", "stall-iq", "measure-start",
	"select-emit", "select-join",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Event is one probe-bus record. Events are pointer-free so the slab chunks
// are never scanned by the GC.
type Event struct {
	Cycle uint64
	A, B  uint64
	Kind  Kind
	Lane  uint8
}

// busChunkSize is the slab chunk granularity of the bus (pointer-free
// events; ~24 KiB per chunk).
const busChunkSize = 1 << 10

// Bus is the probe bus: a slab-backed, bounded event recorder. Emit appends
// into the current chunk and allocates a fresh chunk only when one fills
// (amortized ~1 allocation per 1024 events); past the configured limit,
// events are counted in Dropped instead of stored, so a pathological run
// cannot exhaust memory.
type Bus struct {
	chunks  [][]Event
	n       int
	limit   int
	Dropped uint64
}

// newBus returns a bus bounded at limit events, with the first chunk
// preallocated.
func newBus(limit int) *Bus {
	b := &Bus{limit: limit}
	b.chunks = append(b.chunks, make([]Event, 0, busChunkSize))
	return b
}

// Emit records one event.
func (b *Bus) Emit(k Kind, cycle, a, bb uint64, lane uint8) {
	if b.n >= b.limit {
		b.Dropped++
		return
	}
	last := len(b.chunks) - 1
	if len(b.chunks[last]) == busChunkSize {
		b.chunks = append(b.chunks, make([]Event, 0, busChunkSize))
		last++
	}
	b.chunks[last] = append(b.chunks[last], Event{Cycle: cycle, A: a, B: bb, Kind: k, Lane: lane})
	b.n++
}

// Len returns the number of stored events.
func (b *Bus) Len() int { return b.n }

// Each calls f for every stored event in emission order.
func (b *Bus) Each(f func(*Event)) {
	for _, c := range b.chunks {
		for i := range c {
			f(&c[i])
		}
	}
}

// CountKind returns how many stored events have the given kind.
func (b *Bus) CountKind(k Kind) int {
	n := 0
	b.Each(func(e *Event) {
		if e.Kind == k {
			n++
		}
	})
	return n
}

// Options sizes a Recorder. The zero value selects the documented defaults.
type Options struct {
	// IntervalInsts is the phase-sampling interval K: one time-series
	// snapshot every K committed instructions (default 1000).
	IntervalInsts int
	// MaxPipeUops caps per-uop lifecycle records per lane (default 50000).
	MaxPipeUops int
	// MaxBusEvents caps probe-bus storage (default 1<<20).
	MaxBusEvents int
}

func (o Options) withDefaults() Options {
	if o.IntervalInsts <= 0 {
		o.IntervalInsts = 1000
	}
	if o.MaxPipeUops <= 0 {
		o.MaxPipeUops = 50_000
	}
	if o.MaxBusEvents <= 0 {
		o.MaxBusEvents = 1 << 20
	}
	return o
}

// Recorder bundles the observability state of one machine run: the probe
// bus, two pipeline lifecycle probes (cold = lane 0, hot = lane 1), the
// interval time-series sampler and the per-trace biography book. A Recorder
// observes exactly one run; attach a fresh one per run.
type Recorder struct {
	Opts   Options
	Bus    *Bus
	Lanes  [2]*PipeProbe
	Series *Series

	bios    map[uint64]*TraceBio
	bioKeys []uint64 // insertion order, for deterministic export

	// clock points at the owning machine's cycle counter so layer probes
	// (trace cache, optimizer) and the machine's selection events can
	// stamp events with the machine time of the call.
	clock *uint64

	// curOptKey is the TID key of the trace currently inside the optimizer,
	// so per-pass events can be attributed without threading the key through
	// the optimizer's pass pipeline.
	curOptKey uint64
	optPassN  uint64
	passNames []string // pass name per ordinal (the pipeline is config-fixed)

	finalCycle uint64 // clock at Finalize (residency accounting)
}

// NewRecorder builds a recorder with the given options.
func NewRecorder(o Options) *Recorder {
	o = o.withDefaults()
	r := &Recorder{
		Opts:   o,
		Bus:    newBus(o.MaxBusEvents),
		Series: newSeries(o.IntervalInsts),
		bios:   make(map[uint64]*TraceBio),
	}
	r.Lanes[0] = newPipeProbe(0, o.MaxPipeUops)
	r.Lanes[1] = newPipeProbe(1, o.MaxPipeUops)
	return r
}

// Bind points the recorder at the owning machine's clock. The machine calls
// this once at attach time.
func (r *Recorder) Bind(clock *uint64) { r.clock = clock }

func (r *Recorder) now() uint64 {
	if r.clock == nil {
		return 0
	}
	return *r.clock
}

// Pipe returns the lifecycle probe for a lane (0 = cold, 1 = hot).
func (r *Recorder) Pipe(lane int) *PipeProbe { return r.Lanes[lane] }

// lane01 converts a hot flag to a lane id.
func lane01(hot bool) uint8 {
	if hot {
		return 1
	}
	return 0
}

// Segment records one selection segment entering execution.
func (r *Recorder) Segment(tid trace.TID, insts, uops int, hot bool) {
	r.Bus.Emit(KSegment, r.now(), tid.Key(), uint64(uops), lane01(hot))
	b := r.bio(tid)
	if b.NumInsts == 0 {
		b.NumInsts = insts
	}
	if b.Uops == 0 {
		b.Uops = uops
	}
	if hot {
		b.Executions++
		b.HotInsts += uint64(insts)
	} else {
		b.ColdExecutions++
	}
}

// PipeSwitch records a cold<->hot pipeline switch at the fetch selector.
func (r *Recorder) PipeSwitch(tid trace.TID, toHot bool) {
	r.Bus.Emit(KPipeSwitch, r.now(), tid.Key(), 0, lane01(toHot))
}

// Selected records the trace selector's decisions for one segment, from
// the facts a selection log keeps: a join event per identical unit merged
// into it (the k-th join carries the TID of the first k units, a prefix of
// the final direction string) and then the emission, joining applied. The
// machine calls it just before executing the segment.
func (r *Recorder) Selected(seg *trace.Segment) {
	unit := seg.NDirsPerUnit()
	for k := 2; k <= seg.Joined; k++ {
		r.Bus.Emit(KSelectJoin, r.now(), seg.TID.Prefix(k*unit).Key(), uint64(k), 0)
	}
	r.Bus.Emit(KSelectEmit, r.now(), seg.TID.Key(), packPair(seg.Uops, seg.Joined), 0)
}

// TPred records one trace-predictor decision. pred is zero when the
// predictor had no confident prediction.
func (r *Recorder) TPred(pred, actual uint64, correct bool) {
	r.Bus.Emit(KTPred, r.now(), pred, actual, lane01(correct))
}

// TraceAbort records a mispredicted trace's assert flush.
func (r *Recorder) TraceAbort(tid trace.TID) {
	r.Bus.Emit(KTraceAbort, r.now(), tid.Key(), 0, 1)
	r.bio(tid).Aborts++
}

// HotPromote records a hot-filter promotion (trace will be built).
func (r *Recorder) HotPromote(tid trace.TID) {
	r.Bus.Emit(KHotPromote, r.now(), tid.Key(), 0, 0)
	b := r.bio(tid)
	b.HotPromotions++
	if b.BuiltAt == 0 {
		b.BuiltAt = r.now()
	}
}

// BlazePromote records a blazing-filter promotion (trace will be optimized).
func (r *Recorder) BlazePromote(tid trace.TID) {
	r.Bus.Emit(KBlazePromote, r.now(), tid.Key(), 0, 0)
	r.bio(tid).BlazePromotions++
}

// OptimizeStart marks the optimizer invocation for per-pass attribution.
func (r *Recorder) OptimizeStart(tid trace.TID) {
	r.curOptKey = tid.Key()
	r.optPassN = 0
}

// OptimizeEnd records the result of one optimizer invocation.
func (r *Recorder) OptimizeEnd(tid trace.TID, uopsBefore, uopsAfter, critBefore, critAfter int) {
	r.Bus.Emit(KOptimize, r.now(), tid.Key(), packPair(uopsBefore, uopsAfter), 1)
	b := r.bio(tid)
	b.Optimized = true
	b.Optimizations++
	b.UopsBefore = uopsBefore
	b.UopsAfter = uopsAfter
	b.CritBefore = critBefore
	b.CritAfter = critAfter
	r.curOptKey = 0
}

// Pass implements the optimizer's pass probe: one event per optimization
// pass with the uop delta it produced. Event payload A is the pass ordinal
// within the invocation; the pass pipeline is fixed per optimizer config, so
// ordinals map to names via PassNames.
func (r *Recorder) Pass(name string, uopsBefore, uopsAfter int) {
	r.Bus.Emit(KOptPass, r.now(), r.optPassN, packPair(uopsBefore, uopsAfter), 0)
	if int(r.optPassN) == len(r.passNames) {
		r.passNames = append(r.passNames, name)
	}
	r.optPassN++
}

// PassNames returns the optimizer pass name for each KOptPass ordinal.
func (r *Recorder) PassNames() []string { return r.passNames }

// TCLookup implements the trace cache's probe for lookup outcomes.
func (r *Recorder) TCLookup(key uint64, hit bool) {
	k := KTCMiss
	if hit {
		k = KTCHit
	}
	r.Bus.Emit(k, r.now(), key, 0, lane01(hit))
	if hit {
		if b := r.bios[key]; b != nil {
			b.Hits++
		}
	}
}

// TCInsert implements the trace cache's probe for inserts/write-backs.
func (r *Recorder) TCInsert(key uint64, uops int, writeback bool) {
	r.Bus.Emit(KTCInsert, r.now(), key, uint64(uops), lane01(writeback))
	if b := r.bios[key]; b != nil {
		b.Uops = uops
		if writeback {
			b.Writebacks++
		} else {
			b.Inserts++
		}
		if !b.resident {
			b.resident = true
			b.lastInsert = r.now()
		}
	}
}

// TCEvict implements the trace cache's probe for evictions.
func (r *Recorder) TCEvict(key uint64) {
	r.Bus.Emit(KTCEvict, r.now(), key, 0, 0)
	if b := r.bios[key]; b != nil {
		b.Evictions++
		if b.resident {
			b.ResidentCycles += r.now() - b.lastInsert
			b.resident = false
		}
	}
}

// Stall records the last n dispatch cycles, up to and including the current
// one, as lost to a full ROB or issue queue: one event per cycle, so a
// fast-forwarded blocked window reads exactly like the ticks it replaced.
func (r *Recorder) Stall(rob bool, hot bool, n uint64) {
	k := KStallIQ
	if rob {
		k = KStallROB
	}
	for c := r.now() - n + 1; c <= r.now(); c++ {
		r.Bus.Emit(k, c, 0, 0, lane01(hot))
	}
}

// MeasureStart marks the warmup/measurement boundary. The time series
// re-baselines so interval 0 starts at the measured window.
func (r *Recorder) MeasureStart() {
	r.Bus.Emit(KMeasureStart, r.now(), 0, 0, 0)
}

// Finalize stamps the end of the run: still-resident traces close their
// residency windows and the series closes its trailing partial interval.
// The machine calls this once, after drain.
func (r *Recorder) Finalize() {
	r.finalCycle = r.now()
	for _, k := range r.bioKeys {
		b := r.bios[k]
		if b.resident {
			b.ResidentCycles += r.finalCycle - b.lastInsert
			b.resident = false
		}
	}
}

// packPair packs two non-negative ints into one uint64 payload.
func packPair(hi, lo int) uint64 { return uint64(uint32(hi))<<32 | uint64(uint32(lo)) }

// UnpackPair splits a packPair payload.
func UnpackPair(v uint64) (hi, lo int) { return int(v >> 32), int(uint32(v)) }

// OccupancyBuckets returns the standard occupancy histogram layout used for
// the ROB and IQ time-series histograms.
func OccupancyBuckets(capacity int) []int {
	step := capacity / 16
	if step < 1 {
		step = 1
	}
	return metrics.LinearBuckets(step, 16)
}

// EnergyComponentNames returns the breakdown component names in index order
// (export helper shared by the JSON and CSV writers).
func EnergyComponentNames() []string {
	out := make([]string, energy.NumComponents)
	for c := energy.Component(0); c < energy.NumComponents; c++ {
		out[c] = c.String()
	}
	return out
}
