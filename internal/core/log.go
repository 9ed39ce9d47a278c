package core

import (
	"math"
	"sync"

	"parrot/internal/trace"
	"parrot/internal/workload"
)

// chunkInsts bounds how many instructions a run records before replaying
// them: every run alternates recording a chunk of its source into a
// SelectionLog and replaying that chunk, so its log arena stays near
// 2 MiB however long the source is.
const chunkInsts = 64 << 10

// SelectionLog is one application's recorded front half: its dynamic
// instruction stream, the trace selector's segments over that stream, and
// the point where the warm-up ResetStats fires. None of it depends on the
// machine model — the stream is a function of the profile and the budget,
// and trace selection takes no parameter — so a matrix records the log
// once per application and replays it to every model cell with ReplayWarm,
// the way PARROT builds a trace once and reuses it on every hot execution.
//
// The instructions live in one arena, and each segment's Insts is a range
// of it. Replay only reads the log, so any number of machines may replay
// one log concurrently. Record reuses the log's storage, so a log can
// serve one application after another.
//
// A log holds either a whole recording (Record) or the current chunk of a
// run (record): the selector carries its pending and in-progress segment
// from one chunk to the next, so a chunk holds exactly the segments the
// selector completed while taking its instructions.
type SelectionLog struct {
	prof  workload.Profile
	insts []workload.DynInst
	segs  []trace.Segment
	warm  int // segments executed before ResetStats; -1 = no reset
	sel   trace.Selector

	// Recording state, carried across chunks.
	src    InstSource
	fed    int // instructions taken from src
	warmAt int // the instruction after which statistics reset
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

// Record runs all of src through trace selection into the log and marks
// the warm-up boundary exactly where RunSourceWarm(src, prof, warm) resets
// statistics: after the segments completed by the warm-th instruction. n
// is the number of instructions src yields; it sizes the arena once (a
// longer source still records correctly, at the cost of a reallocation).
func (l *SelectionLog) Record(src InstSource, prof workload.Profile, n, warm int) {
	l.start(src, prof, n, warm)
	l.record(math.MaxInt)
}

// start begins a recording of src. The arena is sized for size
// instructions plus the pending and in-progress segments (at most
// trace.MaxUops instructions each) the selector may complete late.
func (l *SelectionLog) start(src InstSource, prof workload.Profile, size, warm int) {
	if c := size + 2*trace.MaxUops; cap(l.insts) < c {
		l.insts = make([]workload.DynInst, 0, c)
	}
	l.prof = prof
	l.src, l.fed, l.warmAt = src, 0, warm
	l.sel.Reset()
}

// record replaces the log's contents with the next chunk of its source:
// the segments the selector completes while taking up to limit more
// instructions, then its final Flush once the source runs dry. It reports
// whether the source may hold more.
func (l *SelectionLog) record(limit int) bool {
	l.insts = l.insts[:0]
	l.segs = l.segs[:0]
	l.warm = -1
	for i := 0; i < limit; i++ {
		d, ok := l.src.Next()
		if !ok {
			l.add(l.sel.Flush())
			l.src = nil
			return false
		}
		l.fed++
		l.add(l.sel.Feed(&d))
		if l.fed == l.warmAt {
			l.warm = len(l.segs)
		}
	}
	return true
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

// runLogs is the free list of chunk logs: a run holds one while it runs,
// so the list keeps one log per run that was ever in flight at once.
var runLogs struct {
	sync.Mutex
	free []*SelectionLog
}

// RunSourceWarm drives the machine from an arbitrary instruction source,
// resetting statistics after the first warm instructions (none when warm
// <= 0).
func (m *Machine) RunSourceWarm(src InstSource, prof workload.Profile, warm int) *Result {
	return m.runPooledLog(src, prof, warm, chunkInsts)
}

// runPooledLog is run on a chunk log drawn from the free list. A new log's
// arena fits this run's chunk. A reused log whose arena is too small grows
// to a whole chunk at once, so budgets that creep upward (a server asked
// for 50001, 50002, … instructions) do not reallocate it on every run.
func (m *Machine) runPooledLog(src InstSource, prof workload.Profile, warm, limit int) *Result {
	runLogs.Lock()
	var l *SelectionLog
	if n := len(runLogs.free); n > 0 {
		l = runLogs.free[n-1]
		runLogs.free = runLogs.free[:n-1]
	} else {
		l = new(SelectionLog)
	}
	runLogs.Unlock()
	if c := cap(l.insts); c > 0 && c < limit+2*trace.MaxUops {
		l.insts = make([]workload.DynInst, 0, chunkInsts+2*trace.MaxUops)
	}
	res := m.run(l, src, prof, warm, limit)
	runLogs.Lock()
	runLogs.free = append(runLogs.free, l)
	runLogs.Unlock()
	return res
}

// run is the one run driver: it records src into l a chunk of at most
// limit instructions at a time and replays each chunk on m. The result is
// identical for every limit (TestChunkEdges).
func (m *Machine) run(l *SelectionLog, src InstSource, prof workload.Profile, warm, limit int) *Result {
	l.start(src, prof, limit, warm)
	for more := true; more; {
		more = l.record(limit)
		m.replay(l)
	}
	return m.finish(prof)
}

// ReplayWarm runs a whole recorded log on a caller-managed machine (fresh
// or Reset, as for RunWarmOn). The machine's execSegment sees the same
// segments in the same order and ResetStats fires after the same segment
// as in RunSourceWarm over the recorded stream, so the result is
// bit-identical (TestChunkEdges).
func (m *Machine) ReplayWarm(l *SelectionLog) *Result {
	m.replay(l)
	return m.finish(l.prof)
}

// replay executes the log's segments, firing ResetStats at the recorded
// segment index when the warm-up instruction falls in this log.
func (m *Machine) replay(l *SelectionLog) {
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
}
