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
// The per-cycle kernel is event-driven (PR 2): writeback drains a time wheel
// bucketed by completion cycle instead of scanning an in-flight list; issue
// selects from an age-ordered ready set fed by dependency-driven wakeup
// instead of re-polling every issue-queue entry's sources against the ROB;
// and provably idle windows can be skipped in one jump (Skip/NextEventAt).
// All of it is bit-identical to the poll-everything engine it replaced — the
// lock-in tests in this package and the experiment-matrix golden digest
// enforce that.
package ooo

import (
	"fmt"
	"math/bits"

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
	class    isa.ExecClass
	nsrcLeft int8 // producers not yet completed; data-ready at zero
	done     bool
	isStore  bool
	isLoad   bool
	lastUop  bool // last uop of its instruction (commit counts instructions)
	traceEnd bool // last uop of an atomic trace
	doneAt   uint64
	memAddr  uint64

	// deps are dispatched consumers whose wakeup counter this entry's
	// completion decrements; waiters are loads parked on this (store) entry
	// by memory disambiguation, re-readied when it completes. Both slices
	// keep their capacity across slot reuse, so the steady-state engine
	// allocates nothing.
	deps    []Handle
	waiters []Handle
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
	h      Handle
	doneAt uint64
}

// Engine is one out-of-order core instance.
//
// All internal queues are preallocated at construction: the ROB is a
// power-of-two array indexed by sequence number, the completion wheel is a
// fixed ring of buckets, the ready set is a fixed-capacity sorted slice, and
// the in-flight store list is a ring buffer popped in O(1) at commit (stores
// retire strictly in program order). The steady-state cycle loop performs no
// heap allocation and does work proportional to the events of the cycle, not
// to the number of uops in flight.
type Engine struct {
	cfg Config

	rob     []robEntry // power-of-two sized, >= cfg.ROBSize
	robMask uint64
	head    Handle // oldest un-committed
	tail    Handle // next sequence number
	rename  [isa.NumRegs]Handle // last writer; 0 = architectural file

	// iqCnt models issue-queue occupancy (dispatched, not yet issued) for
	// dispatch back-pressure; the queue itself is the ready set plus the
	// per-entry wakeup lists.
	iqCnt int

	// readyQ holds data-ready, un-issued uops, one age-ordered queue per
	// execution class. Issue merges the queue heads in ascending sequence
	// order; when a class fails its structural check (per-cycle unit budget
	// exhausted, non-pipelined divider busy) the whole queue is skipped for
	// the rest of the cycle — legal because both checks are monotonic within
	// a cycle, so every younger uop of the class would fail identically.
	// Entries enter via dependency-driven wakeup and leave when issued or
	// parked on a blocking store; an idle cycle therefore costs O(classes),
	// independent of how many uops are in flight.
	readyQ    [isa.NumExecClasses][]Handle
	readyCnt  int
	readyMask uint16 // bit c set iff readyQ[c] is non-empty

	// wheel is the completion time wheel: bucket doneAt&wheelMask holds the
	// uops finishing at cycle doneAt. Writeback drains exactly one bucket
	// per cycle, so its cost is O(completions this cycle). Completions
	// beyond the wheel horizon (possible only when a MemModel understates
	// MaxDataLatency) wait in overflow.
	wheel      [][]Handle
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
	e := &Engine{
		cfg:       cfg,
		rob:       make([]robEntry, robLen),
		robMask:   uint64(robLen - 1),
		stores:    make([]Handle, storeLen),
		storeMask: storeLen - 1,
		wheel:     make([][]Handle, wheelLen),
		wheelMask: uint64(wheelLen - 1),
		head:      1,
		tail:      1,
		mem:       mem,
	}
	for _, cls := range []isa.ExecClass{isa.ClassIntDiv, isa.ClassFPDiv} {
		e.divBusy[cls] = make([]uint64, cfg.Units[cls])
	}
	return e
}

// Reset returns the engine to its just-constructed state, keeping every
// preallocated structure (including the per-entry wakeup list slabs). A
// reset engine produces bit-identical results to a freshly built one.
func (e *Engine) Reset() {
	for i := range e.rob {
		en := &e.rob[i]
		*en = robEntry{deps: en.deps[:0], waiters: en.waiters[:0]}
	}
	e.head, e.tail = 1, 1
	e.iqCnt = 0
	for cls := range e.readyQ {
		e.readyQ[cls] = e.readyQ[cls][:0]
	}
	e.readyCnt = 0
	e.readyMask = 0
	for i := range e.wheel {
		e.wheel[i] = e.wheel[i][:0]
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

// divUnitFree returns a free non-pipelined unit index for cls, or -1.
func (e *Engine) divUnitFree(cls isa.ExecClass) int {
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

// noSources is the all-RegNone source array, compared as one word in the
// dispatch fast path.
var noSources = [isa.MaxSrc]isa.Reg{isa.RegNone, isa.RegNone, isa.RegNone, isa.RegNone}

// issueClass maps a uop's execution class to the unit pool it competes for
// (nops borrow the integer ALUs).
func issueClass(c isa.ExecClass) isa.ExecClass {
	if c == isa.ClassNop {
		return isa.ClassIntALU
	}
	return c
}

// readyPush inserts h into its class's age-ordered ready queue. The caller
// supplies the (issue-normalized) class, which it already has from the ROB
// slot in hand. Handles arrive mostly in ascending order (wakeups ripple
// down the program), so the insertion point is found by a short scan from
// the tail.
func (e *Engine) readyPush(h Handle, cls isa.ExecClass) {
	q := append(e.readyQ[cls], h)
	i := len(q) - 1
	for i > 0 && q[i-1] > h {
		q[i] = q[i-1]
		i--
	}
	q[i] = h
	e.readyQ[cls] = q
	e.readyCnt++
	e.readyMask |= 1 << cls
}

// schedule enqueues a completion event lat cycles from now.
func (e *Engine) schedule(h Handle, lat uint64) {
	if lat < uint64(len(e.wheel)) {
		b := &e.wheel[(e.now+lat)&e.wheelMask]
		*b = append(*b, h)
	} else {
		e.overflow = append(e.overflow, overflowItem{h: h, doneAt: e.now + lat})
	}
	e.pendingCnt++
}

// complete performs writeback for one uop: mark it done and wake everything
// waiting on it — register consumers whose last producer this was, and loads
// parked on this store by disambiguation.
func (e *Engine) complete(h Handle) {
	en := e.slot(h)
	en.done = true
	e.Stats.Wakeups++
	e.pendingCnt--
	if e.probe != nil {
		e.probe.OnComplete(uint64(h), e.now)
	}
	if en.isStore {
		e.storePend--
		e.storeAddrCnt[storeAddrHash(en.memAddr)]--
	}
	for _, d := range en.deps {
		de := e.slot(d)
		de.nsrcLeft--
		if de.nsrcLeft == 0 {
			e.readyPush(d, issueClass(de.class))
		}
	}
	en.deps = en.deps[:0]
	for _, l := range en.waiters {
		e.readyPush(l, issueClass(e.slot(l).class))
	}
	en.waiters = en.waiters[:0]
}

// Dispatch renames and inserts a uop, returning its handle. The caller must
// respect CanDispatch and the per-cycle width (Engine enforces neither, so
// the front-end model owns bandwidth accounting). lastUop marks instruction
// boundaries; traceEnd marks atomic-trace boundaries.
func (e *Engine) Dispatch(u *isa.Uop, memAddr uint64, lastUop, traceEnd bool) Handle {
	h := e.tail
	e.tail++
	en := e.slot(h)
	// Field-wise reinitialization: a composite-literal assignment would copy
	// the whole (slice-bearing) struct through a temporary on every dispatch.
	en.seq = h
	en.class = u.Op.Class()
	en.nsrcLeft = 0
	en.done = false
	en.isStore = false
	en.isLoad = false
	en.lastUop = lastUop
	en.traceEnd = traceEnd
	en.doneAt = 0
	en.memAddr = 0
	en.deps = en.deps[:0]
	en.waiters = en.waiters[:0]
	if u.Src != noSources { // zero-operand uops skip the rename scan entirely
		for _, s := range u.Src {
			if s == isa.RegNone {
				continue
			}
			e.Stats.RegReads++
			if p := e.rename[s]; p != 0 {
				if pe := e.slot(p); pe.seq == p && !pe.done {
					// Live producer: register for wakeup instead of
					// re-polling the ROB every cycle.
					pe.deps = append(pe.deps, h)
					en.nsrcLeft++
				}
			}
		}
	}
	for _, d := range u.Dst {
		if d != isa.RegNone {
			e.rename[d] = h
			e.Stats.RegWrites++
		}
	}
	switch u.Op {
	case isa.OpLoad:
		en.isLoad = true
		en.memAddr = memAddr
	case isa.OpStore:
		en.isStore = true
		en.memAddr = memAddr
		e.stores[(e.storeHead+e.storeCnt)&e.storeMask] = h
		e.storeCnt++
		e.storePend++
		e.storeAddrCnt[storeAddrHash(memAddr)]++
	}
	e.iqCnt++
	if en.nsrcLeft == 0 {
		e.readyPush(h, issueClass(en.class))
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
		for _, h := range *b {
			e.complete(h)
		}
		*b = (*b)[:0]
		if len(e.overflow) > 0 {
			out := e.overflow[:0]
			for _, it := range e.overflow {
				if it.doneAt <= e.now {
					e.complete(it.h)
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

	// Issue: merge the per-class ready queues in ascending age order, up to
	// issue width and unit availability. Processing uops in global sequence
	// order reproduces the age-ordered full-queue scan bit-identically
	// (non-ready entries could never issue anyway); skipping a whole class
	// after its first structural failure is exact because the per-cycle unit
	// budget and the divider busy times are monotonic within the cycle.
	// Consumption is strictly from each queue's head, so the consumed
	// entries form a prefix compacted once at the end.
	if e.readyCnt > 0 {
		var unitsUsed [isa.NumExecClasses]int
		var qpos [isa.NumExecClasses]int
		// active lists the classes still holding issue candidates; a class
		// leaves it when its queue is exhausted or structurally blocked, so
		// the merge scans only live queues (typically one or two). The
		// non-empty set comes from the readyMask bitmap, so building it costs
		// O(live classes), not O(classes). heads mirrors each live queue's
		// current head so the min-scan reads a small local array instead of
		// re-indexing the queues.
		var active [isa.NumExecClasses]uint8
		var heads [isa.NumExecClasses]Handle
		na := 0
		for mask := e.readyMask; mask != 0; mask &= mask - 1 {
			cls := bits.TrailingZeros16(mask)
			active[na] = uint8(cls)
			heads[na] = e.readyQ[cls][0]
			na++
		}
		issued := 0
		for issued < e.cfg.IssueWidth && na > 0 {
			if na == 1 {
				// Single live class (the common case): issue straight down
				// its queue with no merge bookkeeping. Identical decisions
				// to the general path — same head order, same structural
				// checks, same side-effect order.
				cls := isa.ExecClass(active[0])
				q := e.readyQ[cls]
				units := e.cfg.Units[cls]
				div := e.divBusy[cls] != nil
				p := qpos[cls]
				for issued < e.cfg.IssueWidth && p < len(q) && unitsUsed[cls] < units {
					bestH := q[p]
					en := e.slot(bestH)
					if en.isLoad {
						if sh := e.blockingStore(en); sh != 0 {
							se := e.slot(sh)
							se.waiters = append(se.waiters, bestH)
							p++
							e.readyCnt--
							continue
						}
					}
					lat := en.class.Latency()
					if div {
						unit := e.divUnitFree(cls)
						if unit < 0 {
							break
						}
						e.divBusy[cls][unit] = e.now + uint64(lat)
					}
					if en.isLoad {
						lat += e.mem.AccessData(en.memAddr, false)
					}
					if en.isStore {
						e.mem.AccessData(en.memAddr, true)
					}
					en.doneAt = e.now + uint64(lat)
					e.schedule(bestH, uint64(lat))
					if e.probe != nil {
						e.probe.OnIssue(uint64(bestH), e.now)
					}
					p++
					e.readyCnt--
					e.iqCnt--
					unitsUsed[cls]++
					issued++
					e.Stats.OpsByClass[cls]++
				}
				qpos[cls] = p
				break
			}
			// Oldest candidate among the live queue heads.
			bi := 0
			bestH := heads[0]
			for i := 1; i < na; i++ {
				if heads[i] < bestH {
					bestH, bi = heads[i], i
				}
			}
			cls := isa.ExecClass(active[bi])
			if unitsUsed[cls] >= e.cfg.Units[cls] {
				na--
				active[bi] = active[na]
				heads[bi] = heads[na]
				continue
			}
			en := e.slot(bestH)
			if en.isLoad {
				if sh := e.blockingStore(en); sh != 0 {
					// Park on the blocking store: the load leaves the ready
					// set and re-enters when that store completes (it then
					// re-checks for further blockers). Equivalent to the
					// old per-cycle re-scan: the load still issues on the
					// first cycle with no incomplete aliasing store.
					se := e.slot(sh)
					se.waiters = append(se.waiters, bestH)
					qpos[cls]++
					e.readyCnt--
					if p := qpos[cls]; p == len(e.readyQ[cls]) {
						na--
						active[bi] = active[na]
						heads[bi] = heads[na]
					} else {
						heads[bi] = e.readyQ[cls][p]
					}
					continue
				}
			}
			lat := en.class.Latency()
			if e.divBusy[cls] != nil {
				unit := e.divUnitFree(cls)
				if unit < 0 {
					na--
					active[bi] = active[na]
					heads[bi] = heads[na]
					continue
				}
				e.divBusy[cls][unit] = e.now + uint64(lat)
			}
			if en.isLoad {
				lat += e.mem.AccessData(en.memAddr, false)
			}
			if en.isStore {
				e.mem.AccessData(en.memAddr, true)
			}
			en.doneAt = e.now + uint64(lat)
			e.schedule(bestH, uint64(lat))
			if e.probe != nil {
				e.probe.OnIssue(uint64(bestH), e.now)
			}
			qpos[cls]++
			e.readyCnt--
			if p := qpos[cls]; p == len(e.readyQ[cls]) {
				na--
				active[bi] = active[na]
				heads[bi] = heads[na]
			} else {
				heads[bi] = e.readyQ[cls][p]
			}
			e.iqCnt--
			unitsUsed[cls]++
			issued++
			e.Stats.OpsByClass[cls]++
		}
		if issued > 0 {
			e.Stats.UopsIssued += uint64(issued)
			e.Stats.ROBReads += uint64(issued)
		}
		// Compact consumed prefixes. readyMask is unchanged during the merge
		// (nothing is pushed while issuing), so it still covers exactly the
		// classes that could have been consumed from.
		for mask := e.readyMask; mask != 0; mask &= mask - 1 {
			cls := bits.TrailingZeros16(mask)
			if p := qpos[cls]; p > 0 {
				q := e.readyQ[cls]
				q = q[:copy(q, q[p:])]
				e.readyQ[cls] = q
				if len(q) == 0 {
					e.readyMask &^= 1 << cls
				}
			}
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
		for mask := e.readyMask; mask != 0; mask &= mask - 1 {
			cls := bits.TrailingZeros16(mask)
			if e.divBusy[cls] == nil {
				// Pipelined class: the head can issue (or a load can park,
				// which also mutates state) on the very next cycle.
				return e.now + 1
			}
			// Non-pipelined divider: the next chance is the earliest unit
			// release (divUnitFree tests busy <= now).
			u := e.divBusy[cls][0]
			for _, b := range e.divBusy[cls][1:] {
				if b < u {
					u = b
				}
			}
			if u <= e.now {
				return e.now + 1
			}
			if u < t {
				t = u
			}
		}
	}
	if e.pendingCnt > 0 {
		n := uint64(len(e.wheel))
		for d := uint64(1); d <= n; d++ {
			if len(e.wheel[(e.now+d)&e.wheelMask]) > 0 {
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

// NoteStallROB and NoteStallIQ let the front-end record dispatch stalls.
func (e *Engine) NoteStallROB() { e.Stats.StallROBFull++ }

// NoteStallIQ records an issue-queue-full dispatch stall.
func (e *Engine) NoteStallIQ() { e.Stats.StallIQFull++ }
