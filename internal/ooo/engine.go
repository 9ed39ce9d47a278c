// Package ooo implements the out-of-order execution engine used by both the
// cold and hot pipelines: register renaming, a reorder buffer, an issue
// queue, parameterized functional units and in-order commit.
//
// The engine is a trace-driven timing model. Uops are dispatched in program
// order, issue out of order when their producers complete and a functional
// unit is free, and commit in order. Branch mispredictions and trace aborts
// are modelled by the front-end withholding fetch until the offending uop
// resolves (stall-on-mispredict), so the engine itself never flushes; this
// is the standard approximation for trace-driven simulators, which do not
// execute wrong-path instructions.
//
// The per-cycle kernel is event-driven: writeback drains a time wheel
// bucketed by completion cycle instead of scanning an in-flight list; a
// completing uop wakes its consumers through wakeup links kept inside the
// ROB's own arrays instead of every issue-queue entry re-polling its sources;
// issue selects the oldest ready uops by find-first-set over a ready bitmap
// indexed by ROB slot; and provably idle windows can be skipped in one jump
// (Skip/NextEventAt). All of it is bit-identical to the poll-everything
// engine it replaced — the lock-in tests in this package and the
// experiment-matrix golden digest enforce that.
package ooo

import (
	"fmt"
	"math/bits"
	"slices"

	"parrot/internal/isa"
	"parrot/internal/obs"
)

// Config sizes one execution engine. The reference narrow machine (model N)
// uses width 4; the wide machine (W) doubles everything (§3.3).
type Config struct {
	Width       int // rename/dispatch width, uops per cycle
	IssueWidth  int // maximum uops issued per cycle
	CommitWidth int // maximum uops committed per cycle
	ROBSize     int
	IQSize      int

	// Units is the number of functional units per execution class.
	Units [isa.NumExecClasses]int
}

// Narrow returns the 4-wide reference configuration (model N's core).
func Narrow() Config {
	var u [isa.NumExecClasses]int
	u[isa.ClassIntALU] = 4
	u[isa.ClassIntMul] = 1
	u[isa.ClassIntDiv] = 1
	u[isa.ClassFPAdd] = 2
	u[isa.ClassFPMul] = 2
	u[isa.ClassFPDiv] = 1
	u[isa.ClassLoad] = 2
	u[isa.ClassStore] = 1
	u[isa.ClassBranch] = 2
	return Config{
		Width: 4, IssueWidth: 4, CommitWidth: 4,
		ROBSize: 128, IQSize: 32, Units: u,
	}
}

// Wide returns the 8-wide configuration (model W's core): double the
// narrow machine in every dimension.
func Wide() Config {
	c := Narrow()
	c.Width, c.IssueWidth, c.CommitWidth = 8, 8, 8
	c.ROBSize, c.IQSize = 192, 48
	for i := range c.Units {
		c.Units[i] *= 2
	}
	return c
}

// Stats counts engine activity for performance and energy accounting.
type Stats struct {
	Cycles         uint64
	UopsDispatched uint64
	UopsIssued     uint64
	UopsCommitted  uint64

	RegReads  uint64 // physical register file read ports exercised
	RegWrites uint64
	Wakeups   uint64 // tag broadcasts into the issue queue
	ROBWrites uint64
	ROBReads  uint64

	OpsByClass [isa.NumExecClasses]uint64

	StallROBFull uint64 // dispatch cycles lost to a full ROB
	StallIQFull  uint64
}

// Handle identifies a dispatched uop (its sequence number).
type Handle uint64

// never is the "no event" sentinel returned by NextEventAt.
const never = ^uint64(0)

type robEntry struct {
	seq      Handle
	memAddr  uint64
	class    isa.ExecClass
	icls     isa.ExecClass // issue class: the unit pool the uop competes for
	nsrcLeft int8          // producers not yet completed; data-ready at zero
	done     bool
	isStore  bool
	isLoad   bool
	lastUop  bool // last uop of its instruction (commit counts instructions)
	traceEnd bool // last uop of an atomic trace

	// depHead heads the list of wakeup edges whose producer is this entry
	// (linked through Engine.edgeNext); waitHead heads the chain of loads
	// parked on this (store) entry by memory disambiguation, linked by slot
	// through their waitNext; wheelNext links the uops of one completion
	// wheel bucket. -1 ends a list. The lists live in the ROB's own arrays,
	// so the engine never allocates for wakeup or writeback.
	depHead   int32
	waitHead  int32
	waitNext  int32
	wheelNext int32
}

// MemModel supplies data-access latency beyond the L1 hit, plus the upper
// bound of that latency so the engine can size its completion wheel. The
// memory hierarchy implements it directly — the engine calls a concrete
// provider rather than a per-machine closure.
type MemModel interface {
	// AccessData returns extra cycles beyond the L1 hit for a data access.
	AccessData(addr uint64, write bool) int
	// MaxDataLatency bounds AccessData's return value.
	MaxDataLatency() int
}

// zeroMem is the all-hits memory model used when none is supplied.
type zeroMem struct{}

func (zeroMem) AccessData(uint64, bool) int { return 0 }
func (zeroMem) MaxDataLatency() int         { return 0 }

// funcMem adapts a plain latency function (tests, ad-hoc models) to
// MemModel. Latencies beyond its declared bound still complete correctly via
// the wheel's overflow list.
type funcMem struct {
	f   func(addr uint64, write bool) int
	max int
}

func (m funcMem) AccessData(addr uint64, write bool) int { return m.f(addr, write) }
func (m funcMem) MaxDataLatency() int                    { return m.max }

// overflowItem is a scheduled completion beyond the wheel horizon.
type overflowItem struct {
	slot   uint64
	doneAt uint64
}

// Engine is one out-of-order core instance.
//
// All internal queues are preallocated at construction: the ROB is a
// power-of-two array indexed by sequence number, the ready set is a bitmap
// over its slots, the wakeup lists are links inside the ROB's own arrays,
// the completion wheel is a fixed ring of bucket heads whose lists are
// linked through the ROB too, and the in-flight store
// list is a ring buffer popped in O(1) at commit (stores retire strictly in
// program order). The steady-state cycle loop performs no heap allocation
// and does work proportional to the events of the cycle, not to the number
// of uops in flight.
type Engine struct {
	cfg Config

	rob     []robEntry // power-of-two sized, >= cfg.ROBSize
	robMask uint64
	head    Handle              // oldest un-committed
	tail    Handle              // next sequence number
	rename  [isa.NumRegs]Handle // last writer; 0 = architectural file

	// iqCnt models issue-queue occupancy (dispatched, not yet issued) for
	// dispatch back-pressure; the queue itself is the ready set plus the
	// wakeup links.
	iqCnt int

	// edgeNext links wakeup edges. Edge slot*isa.MaxSrc+k stands for source
	// k of the uop in ROB slot slot; edgeNext[edge] is the next edge on the
	// same producer's list (robEntry.depHead), -1 at the end.
	edgeNext []int32

	// ready has bit s set while the uop in ROB slot s is data-ready and
	// un-issued; classBits[c] has bit s set while that slot's uop has issue
	// class c. Slot order from the head's slot is age order, so issue takes
	// the oldest ready uop by find-first-set. A class that fails its
	// structural check (per-cycle unit budget exhausted, non-pipelined
	// divider busy) is masked out of the cycle's candidates — legal because
	// both checks are monotonic within a cycle, so every younger uop of the
	// class would fail identically.
	ready     []uint64
	classBits [isa.NumExecClasses][]uint64
	readyCnt  int

	// wheel is the completion time wheel: bucket doneAt&wheelMask heads
	// the list (robEntry.wheelNext, -1 = empty) of the ROB slots finishing
	// at cycle doneAt. Writeback drains exactly one bucket per cycle, so
	// its cost is O(completions this cycle); completion order within a
	// cycle is immaterial, since wakeup only sets ready bits. Completions
	// beyond the wheel horizon (possible only when a MemModel understates
	// MaxDataLatency) wait in overflow.
	wheel      []int32
	wheelMask  uint64
	overflow   []overflowItem
	pendingCnt int // uops executing (wheel + overflow)

	// In-flight stores for memory disambiguation: a ring buffer in program
	// order. Stores commit in order, so the front of the ring is always the
	// next store to retire.
	stores    []Handle // power-of-two sized, >= cfg.ROBSize
	storeMask int
	storeHead int
	storeCnt  int
	storePend int // stores in the ring not yet complete (disambiguation fast path)

	// storeAddrCnt counts incomplete in-flight stores per address-hash
	// bucket. A load whose bucket is zero provably has no aliasing store in
	// flight and skips the ring scan entirely; hash collisions only cost
	// the exact scan, never change its answer.
	storeAddrCnt [256]uint8

	// divBusy tracks per-unit completion times of the non-pipelined divide
	// units (integer and FP); all other units are fully pipelined.
	divBusy [isa.NumExecClasses][]uint64

	// mem supplies data-access latency beyond the L1 hit.
	mem MemModel

	// probe, when non-nil, receives per-uop lifecycle events (dispatch,
	// issue, writeback, commit). Every instrumentation point is a single
	// nil-check branch; with no probe attached the engine is bit- and
	// cost-identical to an uninstrumented build. Probes observe only — they
	// can never change a scheduling decision.
	probe *obs.PipeProbe

	now uint64

	Stats Stats
}

// pow2 returns the smallest power of two >= n.
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// maxClassLatency is the longest baseline execution latency of any class.
func maxClassLatency() int {
	m := 1
	for c := isa.ExecClass(0); c < isa.NumExecClasses; c++ {
		if l := c.Latency(); l > m {
			m = l
		}
	}
	return m
}

// funcMemDefaultBound sizes the wheel for function-adapted memory models
// whose latency bound is unknown; larger latencies fall back to overflow.
const funcMemDefaultBound = 128

// New builds an engine. memLatency supplies data-cache access latency
// beyond the L1 hit time; nil means all accesses hit. Prefer NewWithMem and
// a concrete MemModel, which also lets the engine size its completion wheel
// tightly.
func New(cfg Config, memLatency func(addr uint64, write bool) int) *Engine {
	if memLatency == nil {
		return NewWithMem(cfg, zeroMem{})
	}
	return NewWithMem(cfg, funcMem{f: memLatency, max: funcMemDefaultBound})
}

// NewWithMem builds an engine around a concrete memory latency provider.
func NewWithMem(cfg Config, mem MemModel) *Engine {
	if cfg.Width < 1 || cfg.ROBSize < cfg.Width || cfg.IQSize < 1 {
		panic(fmt.Sprintf("ooo: degenerate config %+v", cfg))
	}
	if mem == nil {
		mem = zeroMem{}
	}
	robLen := pow2(cfg.ROBSize)
	storeLen := pow2(cfg.ROBSize)
	wheelLen := pow2(maxClassLatency() + mem.MaxDataLatency() + 2)
	words := (robLen + 63) / 64
	e := &Engine{
		cfg:       cfg,
		rob:       make([]robEntry, robLen),
		robMask:   uint64(robLen - 1),
		edgeNext:  make([]int32, robLen*isa.MaxSrc),
		ready:     make([]uint64, words),
		stores:    make([]Handle, storeLen),
		storeMask: storeLen - 1,
		wheel:     make([]int32, wheelLen),
		wheelMask: uint64(wheelLen - 1),
		mem:       mem,
	}
	for cls := range e.classBits {
		e.classBits[cls] = make([]uint64, words)
	}
	for _, cls := range divClasses {
		e.divBusy[cls] = make([]uint64, cfg.Units[cls])
	}
	e.Reset()
	return e
}

// divClasses are the classes executed by non-pipelined units.
var divClasses = [...]isa.ExecClass{isa.ClassIntDiv, isa.ClassFPDiv}

// Reset returns the engine to its just-constructed state, keeping every
// preallocated structure. A reset engine produces bit-identical results to a
// freshly built one.
func (e *Engine) Reset() {
	clear(e.rob)
	e.head, e.tail = 1, 1
	e.iqCnt = 0
	clear(e.ready)
	for cls := range e.classBits {
		clear(e.classBits[cls])
	}
	e.readyCnt = 0
	for i := range e.wheel {
		e.wheel[i] = -1
	}
	e.overflow = e.overflow[:0]
	e.pendingCnt = 0
	e.rename = [isa.NumRegs]Handle{}
	e.storeHead, e.storeCnt = 0, 0
	e.storePend = 0
	e.storeAddrCnt = [256]uint8{}
	for cls := range e.divBusy {
		for i := range e.divBusy[cls] {
			e.divBusy[cls][i] = 0
		}
	}
	e.now = 0
	e.Stats = Stats{}
	e.probe = nil // observers are per-run; a reset engine starts unobserved
}

// SetProbe attaches (or, with nil, detaches) a pipeline lifecycle probe.
func (e *Engine) SetProbe(p *obs.PipeProbe) { e.probe = p }

// unitFree returns the unit a class-cls uop would issue to: 0 for the
// fully pipelined classes (no divBusy), else the first non-pipelined unit
// whose busy time has passed, or -1.
func (e *Engine) unitFree(cls isa.ExecClass) int {
	if e.divBusy[cls] == nil {
		return 0
	}
	for i, busy := range e.divBusy[cls] {
		if busy <= e.now {
			return i
		}
	}
	return -1
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Now returns the engine's cycle counter.
func (e *Engine) Now() uint64 { return e.now }

func (e *Engine) slot(h Handle) *robEntry { return &e.rob[uint64(h)&e.robMask] }

// StoreQueueLen returns the number of in-flight stores awaiting commit.
func (e *Engine) StoreQueueLen() int { return e.storeCnt }

// IQLen returns the modelled issue-queue occupancy (dispatched, un-issued).
func (e *Engine) IQLen() int { return e.iqCnt }

// InFlight returns the number of uops in the ROB.
func (e *Engine) InFlight() int { return int(e.tail - e.head) }

// CanDispatch reports whether at least one more uop fits this cycle.
func (e *Engine) CanDispatch() bool {
	return e.InFlight() < e.cfg.ROBSize && e.iqCnt < e.cfg.IQSize
}

// setReady and clearReady move ROB slot s into and out of the ready set.
func (e *Engine) setReady(s uint64) {
	e.ready[s>>6] |= 1 << (s & 63)
	e.readyCnt++
}

func (e *Engine) clearReady(s uint64) {
	e.ready[s>>6] &^= 1 << (s & 63)
	e.readyCnt--
}

// schedule enqueues the completion of the uop in ROB slot s lat cycles
// from now.
func (e *Engine) schedule(s, lat uint64) {
	if lat < uint64(len(e.wheel)) {
		b := &e.wheel[(e.now+lat)&e.wheelMask]
		e.rob[s].wheelNext = *b
		*b = int32(s)
	} else {
		e.overflow = append(e.overflow, overflowItem{slot: s, doneAt: e.now + lat})
	}
	e.pendingCnt++
}

// complete performs writeback for one uop: mark it done and wake everything
// waiting on it — register consumers whose last producer this was, and loads
// parked on this store by disambiguation.
func (e *Engine) complete(s uint64) {
	en := &e.rob[s]
	en.done = true
	e.Stats.Wakeups++
	e.pendingCnt--
	if e.probe != nil {
		e.probe.OnComplete(uint64(en.seq), e.now)
	}
	if en.isStore {
		e.storePend--
		e.storeAddrCnt[storeAddrHash(en.memAddr)]--
	}
	for ed := en.depHead; ed >= 0; ed = e.edgeNext[ed] {
		s := uint64(ed) / isa.MaxSrc
		de := &e.rob[s]
		de.nsrcLeft--
		if de.nsrcLeft == 0 {
			e.setReady(s)
		}
	}
	for s := en.waitHead; s >= 0; s = e.rob[s].waitNext {
		e.setReady(uint64(s))
	}
}

// Dispatch renames and inserts a uop, returning its handle. The caller must
// respect CanDispatch and the per-cycle width (Engine enforces neither, so
// the front-end model owns bandwidth accounting). lastUop marks instruction
// boundaries; traceEnd marks atomic-trace boundaries.
//
// Dispatch reads only the uop's pre-decoded form (isa.Form) and the
// registers it names: whoever wrote the uop decoded it. An undecoded uop
// panics rather than stalling forever in a unit pool that does not exist.
func (e *Engine) Dispatch(u *isa.Uop, memAddr uint64, lastUop, traceEnd bool) Handle {
	f := u.Form
	if f.Issue == isa.ClassNop {
		panic("ooo: dispatch of an undecoded uop " + u.String())
	}
	h := e.tail
	e.tail++
	slot := uint64(h) & e.robMask
	en := &e.rob[slot]
	cls := f.Issue
	if old := en.icls; old != cls {
		e.classBits[old][slot>>6] &^= 1 << (slot & 63)
		e.classBits[cls][slot>>6] |= 1 << (slot & 63)
	}
	en.seq = h
	en.memAddr = 0
	en.class, en.icls = f.Class, cls
	en.nsrcLeft = 0
	en.done, en.isStore, en.isLoad = false, false, false
	en.lastUop, en.traceEnd = lastUop, traceEnd
	en.depHead, en.waitHead = -1, -1
	for m := f.Srcs; m != 0; m &= m - 1 {
		k := bits.TrailingZeros8(m) & (isa.MaxSrc - 1)
		e.Stats.RegReads++
		if p := e.rename[u.Src[k]]; p != 0 {
			if pe := e.slot(p); pe.seq == p && !pe.done {
				// Live producer: link this source onto its wakeup list
				// instead of re-polling the ROB every cycle.
				ed := int32(slot)*isa.MaxSrc + int32(k)
				e.edgeNext[ed] = pe.depHead
				pe.depHead = ed
				en.nsrcLeft++
			}
		}
	}
	for m := f.Dsts; m != 0; m &= m - 1 {
		e.rename[u.Dst[bits.TrailingZeros8(m)&(isa.MaxDst-1)]] = h
		e.Stats.RegWrites++
	}
	switch f.Class {
	case isa.ClassLoad:
		en.isLoad = true
		en.memAddr = memAddr
	case isa.ClassStore:
		en.isStore = true
		en.memAddr = memAddr
		e.stores[(e.storeHead+e.storeCnt)&e.storeMask] = h
		e.storeCnt++
		e.storePend++
		e.storeAddrCnt[storeAddrHash(memAddr)]++
	}
	e.iqCnt++
	if en.nsrcLeft == 0 {
		e.setReady(slot)
	}
	e.Stats.UopsDispatched++
	e.Stats.ROBWrites++
	if e.probe != nil {
		// Dispatch happens before this machine cycle's Cycle() call advances
		// now, so the uop enters at now+1 on the engine timeline.
		e.probe.OnDispatch(uint64(h), uint8(en.class), e.now+1, lastUop, traceEnd)
	}
	return h
}

// Done reports whether the uop has finished execution.
func (e *Engine) Done(h Handle) bool {
	en := e.slot(h)
	return en.seq != h || en.done // overwritten entries were committed long ago
}

// Retired reports whether the uop has committed.
func (e *Engine) Retired(h Handle) bool { return h < e.head }

// storeAddrHash buckets a data address for the disambiguation filter.
func storeAddrHash(addr uint64) uint8 { return uint8(addr>>2 ^ addr>>10) }

// blockingStore returns the oldest older in-flight store to the same address
// that has not completed (no forwarding modelled: the load waits), or 0. The
// store ring is in ascending program order, so the scan stops at the first
// store younger than the load.
func (e *Engine) blockingStore(en *robEntry) Handle {
	// Fast path: with no incomplete store in flight nothing can block, and
	// the scan can stop once every incomplete store has been examined —
	// completed stores lingering in the ring until commit never match.
	rem := e.storePend
	if rem == 0 || e.storeAddrCnt[storeAddrHash(en.memAddr)] == 0 {
		return 0
	}
	for i := 0; i < e.storeCnt; i++ {
		sh := e.stores[(e.storeHead+i)&e.storeMask]
		if sh >= en.seq {
			break
		}
		se := e.slot(sh)
		if !se.done {
			if se.memAddr == en.memAddr {
				return sh
			}
			if rem--; rem == 0 {
				break
			}
		}
	}
	return 0
}

// Cycle advances the engine one clock: completion, commit, then issue.
// It returns the number of uops committed this cycle, and how many of them
// were instruction-final (for IPC accounting).
func (e *Engine) Cycle() (committedUops, committedInsts int, traceEnds int) {
	e.now++
	e.Stats.Cycles++

	// Completion/writeback: drain this cycle's wheel bucket, waking
	// dependents. O(completions), not O(in-flight).
	if e.pendingCnt > 0 {
		b := &e.wheel[e.now&e.wheelMask]
		for s := *b; s >= 0; s = e.rob[s].wheelNext {
			e.complete(uint64(s))
		}
		*b = -1
		if len(e.overflow) > 0 {
			out := e.overflow[:0]
			for _, it := range e.overflow {
				if it.doneAt <= e.now {
					e.complete(it.slot)
				} else {
					out = append(out, it)
				}
			}
			e.overflow = out
		}
	}

	// Commit in order.
	for committedUops < e.cfg.CommitWidth && e.head < e.tail {
		en := e.slot(e.head)
		if !en.done {
			break
		}
		if en.isStore {
			// Stores commit in program order, so the retiring store is
			// always the front of the ring: O(1) removal.
			if e.storeCnt == 0 || e.stores[e.storeHead] != e.head {
				panic("ooo: store retired out of program order")
			}
			e.storeHead = (e.storeHead + 1) & e.storeMask
			e.storeCnt--
		}
		if en.lastUop {
			committedInsts++
		}
		if en.traceEnd {
			traceEnds++
		}
		if e.probe != nil {
			e.probe.OnCommit(uint64(e.head), e.now)
		}
		e.head++
		committedUops++
	}
	if committedUops > 0 {
		e.Stats.UopsCommitted += uint64(committedUops)
		e.Stats.ROBReads += uint64(committedUops)
	}

	// Issue: the oldest ready uops first, up to issue width and unit
	// availability. Age order is slot order starting at the head's slot, so
	// the scan visits the head's word from the head bit up, the words after
	// it (wrapping round), and last the head word's bits below the head bit,
	// which hold the youngest, wrapped entries. It stops at the word holding
	// the youngest in-flight uop.
	if e.readyCnt > 0 {
		var unitsUsed [isa.NumExecClasses]int
		var masked uint16 // classes masked out for the rest of the cycle
		n := len(e.ready)
		hs := uint64(e.head) & e.robMask
		hw, hb := int(hs>>6), hs&63
		ts := (hs + uint64(e.tail-e.head) - 1) & e.robMask // youngest's slot
		last := int(ts>>6) - hw
		if ts < hs {
			last += n // wrapped
		}
		issued := 0
		for i := 0; i <= last && issued < e.cfg.IssueWidth; i++ {
			w := (hw + i) & (n - 1)
			b := e.ready[w] // this word's candidates
			if i == 0 {
				b &= ^uint64(0) << hb
			} else if i == n {
				b &= 1<<hb - 1
			}
			for m := masked; m != 0; m &= m - 1 {
				b &^= e.classBits[bits.TrailingZeros16(m)][w]
			}
			for b != 0 && issued < e.cfg.IssueWidth {
				bit := bits.TrailingZeros64(b)
				b &^= 1 << bit
				s := uint64(w<<6 | bit)
				en := &e.rob[s]
				cls := en.icls
				unit := -1
				if unitsUsed[cls] < e.cfg.Units[cls] {
					unit = e.unitFree(cls)
				}
				if unit < 0 {
					// Both checks are monotonic within a cycle, so every
					// younger uop of the class would fail too.
					masked |= 1 << cls
					b &^= e.classBits[cls][w]
					continue
				}
				if en.isLoad {
					if sh := e.blockingStore(en); sh != 0 {
						// Park on the blocking store: the load leaves the ready
						// set and re-enters when that store completes (it then
						// re-checks for further blockers). Equivalent to the
						// old per-cycle re-scan: the load still issues on the
						// first cycle with no incomplete aliasing store.
						se := e.slot(sh)
						en.waitNext = se.waitHead
						se.waitHead = int32(s)
						e.clearReady(s)
						continue
					}
				}
				lat := en.class.Latency()
				if e.divBusy[cls] != nil {
					e.divBusy[cls][unit] = e.now + uint64(lat)
				}
				if en.isLoad {
					lat += e.mem.AccessData(en.memAddr, false)
				}
				if en.isStore {
					e.mem.AccessData(en.memAddr, true)
				}
				e.schedule(s, uint64(lat))
				if e.probe != nil {
					e.probe.OnIssue(uint64(en.seq), e.now)
				}
				e.clearReady(s)
				e.iqCnt--
				unitsUsed[cls]++
				issued++
				e.Stats.OpsByClass[cls]++
			}
		}
		if issued > 0 {
			e.Stats.UopsIssued += uint64(issued)
			e.Stats.ROBReads += uint64(issued)
		}
	}

	return committedUops, committedInsts, traceEnds
}

// NextEventAt returns the earliest cycle at which a Cycle call can make
// progress (complete, commit or issue anything), or "never" (^uint64(0))
// when the pipeline is empty. A Cycle call that advances now to a cycle
// strictly before the returned value only increments the clock — which is
// what Skip does in one step.
func (e *Engine) NextEventAt() uint64 {
	if e.head == e.tail {
		return never
	}
	if e.slot(e.head).done {
		return e.now + 1 // commit can proceed
	}
	t := uint64(never)
	if e.readyCnt > 0 {
		// A ready uop of a pipelined class issues (or a load parks, which
		// also mutates state) on the very next cycle. A ready divide's next
		// chance is its class's earliest unit release (unitFree tests
		// busy <= now).
		for w, r := range e.ready {
			for _, cls := range divClasses {
				if d := r & e.classBits[cls][w]; d != 0 {
					r &^= d
					t = min(t, slices.Min(e.divBusy[cls]))
				}
			}
			if r != 0 {
				return e.now + 1
			}
		}
		if t <= e.now {
			return e.now + 1
		}
	}
	if e.pendingCnt > 0 {
		n := uint64(len(e.wheel))
		for d := uint64(1); d <= n; d++ {
			if e.wheel[(e.now+d)&e.wheelMask] >= 0 {
				if e.now+d < t {
					t = e.now + d
				}
				break
			}
		}
		for i := range e.overflow {
			if e.overflow[i].doneAt < t {
				t = e.overflow[i].doneAt
			}
		}
	}
	return t
}

// Skip advances the clock by k cycles in one step. The caller must ensure
// (via NextEventAt) that none of the skipped cycles could complete, commit
// or issue anything; under that invariant Skip is bit-identical to k no-op
// Cycle calls.
func (e *Engine) Skip(k uint64) {
	e.now += k
	e.Stats.Cycles += k
}

// Drain runs cycles until the pipeline is empty, fast-forwarding provably
// idle stretches, and returns committed instruction-final uops and trace
// ends observed.
func (e *Engine) Drain() (insts, traceEnds int) {
	for e.head < e.tail {
		if t := e.NextEventAt(); t != never && t > e.now+1 {
			e.Skip(t - e.now - 1)
		}
		_, ci, te := e.Cycle()
		insts += ci
		traceEnds += te
	}
	return insts, traceEnds
}

// NoteStalls lets the front-end record k dispatch cycles lost to a full ROB
// (rob) or a full issue queue.
func (e *Engine) NoteStalls(rob bool, k uint64) {
	if rob {
		e.Stats.StallROBFull += k
	} else {
		e.Stats.StallIQFull += k
	}
}
