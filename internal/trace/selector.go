package trace

import (
	"parrot/internal/isa"
	"parrot/internal/workload"
)

// Segment is one completed trace-selection unit: a run of committed
// instructions with its TID. Segments drive both pipelines — hot execution
// replays the trace-cache copy of the segment, cold execution fetches and
// decodes its instructions individually.
type Segment struct {
	TID   TID
	Insts []workload.DynInst

	// Uops is the total decoded uop count, and MemUops how many of them
	// access memory: the selector sums them as it appends instructions, so
	// executing the segment never recounts them.
	Uops    int
	MemUops int

	// Joined counts how many identical consecutive traces were merged into
	// this segment (1 = no joining). Joining implements implicit loop
	// unrolling (§2.2).
	Joined int
}

// NumInsts returns the instruction count of the segment.
func (s *Segment) NumInsts() int { return len(s.Insts) }

// Selector is the deterministic trace-selection state machine of §2.2,
// applied to the in-order committed instruction stream:
//
//   - capacity limitation: frames of at most 64 uops;
//   - complete basic blocks: traces terminate on CTIs (except for extremely
//     large blocks, which split mid-block at the frame boundary);
//   - terminating CTIs: indirect jumps (and episode discontinuities, which
//     behave like them) always terminate; backward taken branches terminate;
//   - RETURN terminates only when it exits the outermost procedure context
//     already encountered in the trace, tracked with a context counter
//     incremented on calls and decremented on returns (procedure inlining);
//   - two or more identical consecutive traces are joined into one, up to
//     the capacity limit (loop unrolling).
//
// The selector is allocation-free in steady state: segment instruction
// storage comes from an internal slab of recycled slices, the pending
// segment is held by value, and Feed returns an internal output buffer that
// is only valid until the next Feed or Flush call. Callers that retain
// segments across calls must copy them; callers that consume them
// immediately should hand the storage back with Recycle.
type Selector struct {
	cur        Segment
	ctx        int // procedure context counter
	pending    Segment
	hasPending bool

	out  []Segment            // reused Feed/Flush output buffer
	free [][]workload.DynInst // slab of recycled instruction slices

	// Stats.
	Built   uint64 // segments emitted
	JoinOps uint64 // joining events

	// probe, when non-nil, observes selection decisions (segment emission
	// with joining applied, and join events). One nil-check branch per
	// emitted segment; probes observe only.
	probe Probe
}

// Probe receives trace-selection events when observability is enabled
// (implemented by obs.Recorder; the interface lives here so the selector
// does not depend on the observability layer).
type Probe interface {
	// SegmentEmitted reports one finalized selection segment: its TID, the
	// instruction and uop counts, and how many identical consecutive units
	// were joined into it (1 = no joining).
	SegmentEmitted(tid TID, insts, uops, joined int)
	// SegmentJoined reports one joining event (implicit loop unrolling):
	// the pending segment absorbed an identical consecutive unit.
	SegmentJoined(tid TID, joined int)
}

// NewSelector returns an empty selection state machine.
func NewSelector() *Selector { return &Selector{} }

// SetProbe attaches (or, with nil, detaches) a selection probe.
func (s *Selector) SetProbe(p Probe) { s.probe = p }

// Reset returns the selector to its just-constructed state, keeping the
// slab of recycled instruction storage (machine-pooling Reset protocol).
func (s *Selector) Reset() {
	s.recycleInsts(s.cur.Insts)
	s.cur = Segment{}
	s.ctx = 0
	if s.hasPending {
		s.recycleInsts(s.pending.Insts)
	}
	s.pending = Segment{}
	s.hasPending = false
	s.out = s.out[:0]
	s.Built, s.JoinOps = 0, 0
	s.probe = nil // observers are per-run
}

// grabInsts returns an empty instruction slice, reusing slab storage when
// available.
func (s *Selector) grabInsts() []workload.DynInst {
	if n := len(s.free); n > 0 {
		sl := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return sl
	}
	// A fresh slice sized for a typical joined segment; it grows at most a
	// few times before entering the recycling loop.
	return make([]workload.DynInst, 0, 32)
}

// recycleInsts returns an instruction slice's backing storage to the slab.
func (s *Selector) recycleInsts(sl []workload.DynInst) {
	if cap(sl) == 0 {
		return
	}
	s.free = append(s.free, sl[:0])
}

// Recycle hands a consumed segment's instruction storage back to the
// selector for reuse. The caller must not touch seg.Insts afterwards.
// Recycling is optional — callers that retain segments simply skip it.
func (s *Selector) Recycle(seg *Segment) {
	s.recycleInsts(seg.Insts)
	seg.Insts = nil
}

// Feed consumes one committed instruction and appends any completed
// segments (usually none or one; flushing joined traces can emit one while
// another remains pending) to an internal buffer that is returned. The
// returned slice and the segments' instruction storage are valid until the
// next Feed or Flush call unless recycled earlier.
func (s *Selector) Feed(d *workload.DynInst) []Segment {
	s.out = s.out[:0]

	nu := len(d.Inst.Uops)
	// Capacity: never exceed the frame. If appending would overflow, close
	// the current trace first (mid-block split for extremely large blocks).
	if s.cur.Uops > 0 && s.cur.Uops+nu > MaxUops {
		s.close()
	}

	if len(s.cur.Insts) == 0 {
		s.cur.TID = TID{Start: d.Inst.PC}
		s.ctx = 0
		if s.cur.Insts == nil {
			s.cur.Insts = s.grabInsts()
		}
	}
	s.cur.Insts = append(s.cur.Insts, *d)
	s.cur.Uops += nu
	s.cur.MemUops += int(d.Inst.MemUops)

	terminate := false
	switch d.Inst.Kind {
	case isa.KindBranch:
		s.cur.TID = s.cur.TID.WithDir(d.Taken)
		// Backward taken branches terminate a trace (loop iteration cut).
		if d.Taken && d.Inst.Target <= d.Inst.PC {
			terminate = true
		}
	case isa.KindJumpInd:
		terminate = true
	case isa.KindCall:
		s.ctx++
	case isa.KindRet:
		if s.ctx > 0 {
			s.ctx--
		} else {
			// Exits the outermost context seen in this trace.
			terminate = true
		}
	}
	if d.EpisodeEnd {
		// The dynamic successor is unrelated code: treat like an indirect
		// control transfer.
		terminate = true
	}
	if s.cur.Uops >= MaxUops {
		terminate = true
	}
	if terminate {
		s.close()
	}
	return s.out
}

// close completes the current segment, applying the joining rule, and
// appends any segment that is now final to the output buffer.
func (s *Selector) close() {
	if len(s.cur.Insts) == 0 {
		return
	}
	done := s.cur
	done.Joined = 1
	s.cur = Segment{Insts: s.grabInsts()}
	s.ctx = 0

	if s.hasPending {
		p := &s.pending
		if sameUnit(p, &done) && p.Uops+done.Uops <= MaxUops {
			// Join: identical consecutive traces merge (loop unrolling).
			p.TID = p.TID.Concat(done.TID)
			p.Insts = append(p.Insts, done.Insts...)
			p.Uops += done.Uops
			p.MemUops += done.MemUops
			p.Joined++
			s.JoinOps++
			if s.probe != nil {
				s.probe.SegmentJoined(p.TID, p.Joined)
			}
			s.recycleInsts(done.Insts)
			return
		}
		// Flush the pending trace; the new one becomes pending.
		s.out = append(s.out, *p)
		s.pending = done
		s.Built++
		if s.probe != nil {
			e := &s.out[len(s.out)-1]
			s.probe.SegmentEmitted(e.TID, len(e.Insts), e.Uops, e.Joined)
		}
		return
	}
	s.pending = done
	s.hasPending = true
}

// NDirsPerUnit returns the direction bits contributed by one joined unit.
func (s *Segment) NDirsPerUnit() int {
	if s.Joined == 0 {
		return int(s.TID.NDirs)
	}
	return int(s.TID.NDirs) / s.Joined
}

// sameUnit reports whether done repeats the base (per-unit) trace of p.
func sameUnit(p *Segment, done *Segment) bool {
	if p.TID.Start != done.TID.Start {
		return false
	}
	unitDirs := p.NDirsPerUnit()
	if int(done.TID.NDirs) != unitDirs {
		return false
	}
	if len(done.Insts)*p.Joined != len(p.Insts) {
		return false
	}
	// Compare instruction sequences of the last unit of p with done.
	off := len(p.Insts) - len(done.Insts)
	for i := range done.Insts {
		if p.Insts[off+i].Inst != done.Insts[i].Inst ||
			p.Insts[off+i].Taken != done.Insts[i].Taken {
			return false
		}
	}
	return true
}

// Flush force-completes any in-progress and pending segments (stream end).
// The returned slice follows the same reuse contract as Feed.
func (s *Selector) Flush() []Segment {
	s.out = s.out[:0]
	s.close()
	if s.hasPending {
		s.out = append(s.out, s.pending)
		s.pending = Segment{}
		s.hasPending = false
		s.Built++
		if s.probe != nil {
			e := &s.out[len(s.out)-1]
			s.probe.SegmentEmitted(e.TID, len(e.Insts), e.Uops, e.Joined)
		}
	}
	return s.out
}
