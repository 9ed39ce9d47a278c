package core

import (
	"parrot/internal/trace"
	"parrot/internal/workload"
)

// SelectionLog is one application's recorded front half: its dynamic
// instruction stream, the trace selector's segments over that stream, and
// the point where the warm-up ResetStats fires. None of it depends on the
// machine model — the stream is a function of the profile and the budget,
// and trace selection takes no parameter — so a matrix records the log
// once per application and replays it to every model cell with ReplayWarm,
// the way PARROT builds a trace once and reuses it on every hot execution.
//
// The instructions live in one arena sized from the budget, and each
// segment's Insts is a range of it. Replay only reads the log, so any
// number of machines may replay one log concurrently. Record reuses the
// log's storage, so a log can serve one application after another.
type SelectionLog struct {
	prof  workload.Profile
	insts []workload.DynInst
	segs  []trace.Segment
	warm  int // segments executed before ResetStats; -1 = no reset
	sel   trace.Selector
}

// RecordWarm records n instructions of prof's stream (n <= 0 = the
// profile's default) under the standard warm-up protocol: the log
// counterpart of RunWarmOn.
func (l *SelectionLog) RecordWarm(prof workload.Profile, n int) {
	if n <= 0 {
		n = prof.Instructions
	}
	src := workload.GetStream(workload.GenerateCached(prof), n)
	defer workload.PutStream(src)
	l.Record(src, prof, n, int(float64(n)*WarmupFraction))
}

// Record runs src through trace selection into the log and marks the
// warm-up boundary exactly where RunSourceWarm(src, prof, warm) would
// reset statistics: after the segments completed by the warm-th
// instruction. n is the number of instructions src yields; it sizes the
// arena once (a longer source still records correctly, at the cost of a
// reallocation).
func (l *SelectionLog) Record(src InstSource, prof workload.Profile, n, warm int) {
	if cap(l.insts) < n {
		l.insts = make([]workload.DynInst, 0, n)
	}
	l.prof = prof
	l.insts = l.insts[:0]
	l.segs = l.segs[:0]
	l.warm = -1
	l.sel.Reset()
	fed := 0
	for {
		d, ok := src.Next()
		if !ok {
			break
		}
		fed++
		l.add(l.sel.Feed(&d))
		if fed == warm {
			l.warm = len(l.segs)
		}
	}
	l.add(l.sel.Flush())
}

// add moves completed segments into the log, copying their instructions
// into the arena and handing the selector's storage straight back.
func (l *SelectionLog) add(segs []trace.Segment) {
	for i := range segs {
		s := segs[i]
		lo := len(l.insts)
		l.insts = append(l.insts, s.Insts...)
		l.sel.Recycle(&segs[i])
		s.Insts = l.insts[lo:len(l.insts):len(l.insts)]
		l.segs = append(l.segs, s)
	}
}

// ReplayWarm runs a recorded log on a caller-managed machine (fresh or
// Reset, as for RunWarmOn). The machine's execSegment sees the same
// segments in the same order and ResetStats fires after the same segment,
// so the result is bit-identical to RunSourceWarm over the recorded stream
// (TestReplayMatchesStreaming). Replay bypasses the machine's own
// selector, so an attached recorder sees no selection events: observed
// runs take the streaming path.
func (m *Machine) ReplayWarm(l *SelectionLog) *Result {
	segs := l.segs
	if l.warm >= 0 {
		for i := range segs[:l.warm] {
			m.execSegment(&segs[i])
		}
		m.ResetStats()
		segs = segs[l.warm:]
	}
	for i := range segs {
		m.execSegment(&segs[i])
	}
	m.drain()
	if m.rec != nil {
		m.obsFinish()
	}
	return m.collect(l.prof)
}
