package trace

import (
	"parrot/internal/isa"
)

// Trace is an executable, decoded trace as stored in the trace cache: the
// uop sequence of a segment with branch directions embedded. Unoptimized
// traces keep their conditional branches; the dynamic optimizer later
// replaces internal branches with asserts and rewrites the body under the
// atomic-commit contract.
type Trace struct {
	TID      TID
	Uops     []isa.Uop
	NumInsts int

	// MemOps is the number of memory uops. The optimizer never removes or
	// reorders memory uops, so the k-th memory uop of the (possibly
	// optimized) trace always corresponds to the k-th memory address of a
	// dynamic segment instance.
	MemOps int

	// Branches is the number of conditional-branch uops embedded in the
	// trace (equal to TID.NDirs at construction).
	Branches int

	// Optimized marks traces rewritten by the dynamic optimizer.
	Optimized bool

	// OrigUops and OrigCritPath record the pre-optimization uop count and
	// dependency critical path; OptCritPath the post-optimization critical
	// path (the paper's Figure 4.9 statistics).
	OrigUops     int
	OrigCritPath int
	OptCritPath  int

	// Executions counts dynamic uses, for Figure 4.10 (optimizer work reuse).
	Executions uint64
}

// Build constructs the decoded trace for a segment: uops are copied from
// the decoded instructions in program order with the dynamic branch
// directions embedded (the reuse container for decode work, §2.1). Each
// copy keeps the dispatch form decoded with its instruction (isa.Form):
// embedding a direction sets only Taken, which the form does not read.
func Build(seg *Segment) *Trace {
	return BuildInto(nil, seg)
}

// BuildInto is Build with slab-backed storage: it constructs the trace into
// t, reusing t's uop storage (typically a trace previously evicted from the
// trace cache). Every field is overwritten, so a recycled trace is
// bit-identical to a freshly built one. t may be nil, in which case a new
// trace is allocated.
func BuildInto(t *Trace, seg *Segment) *Trace {
	if t == nil {
		t = &Trace{Uops: make([]isa.Uop, 0, seg.Uops)}
	}
	*t = Trace{
		TID:      seg.TID,
		NumInsts: len(seg.Insts),
		Uops:     t.Uops[:0],
	}
	dir := 0
	for _, d := range seg.Insts {
		for _, u := range d.Inst.Uops {
			switch {
			case u.Op == isa.OpBr:
				u.Taken = d.Taken
				dir++
				t.Branches++
			case u.Op.IsCTI():
				u.Taken = d.Taken
			case u.Op.IsMem():
				t.MemOps++
			}
			t.Uops = append(t.Uops, u)
		}
	}
	t.OrigUops = len(t.Uops)
	return t
}

// CountMemOps returns the number of memory uops in a uop slice.
func CountMemOps(uops []isa.Uop) int {
	n := 0
	for i := range uops {
		if uops[i].Op.IsMem() {
			n++
		}
	}
	return n
}
