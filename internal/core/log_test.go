package core

import (
	"reflect"
	"testing"

	"parrot/internal/config"
	"parrot/internal/trace"
	"parrot/internal/workload"
)

// joinWatch is a selection probe that tracks whether the selector's
// pending segment has absorbed a join since the last emission.
type joinWatch struct{ joinedPending bool }

func (w *joinWatch) SegmentEmitted(trace.TID, int, int, int) { w.joinedPending = false }
func (w *joinWatch) SegmentJoined(trace.TID, int)            { w.joinedPending = true }

// selectionShape runs prof's n-instruction stream through a bare selector
// and reports whether a joined segment is still pending when the warm-th
// instruction has been fed, and how many segments the final Flush emits.
func selectionShape(prof workload.Profile, n, warm int) (joinedAtWarm bool, flushed int) {
	var w joinWatch
	sel := trace.NewSelector()
	sel.SetProbe(&w)
	src := workload.NewStream(workload.GenerateCached(prof), n)
	for fed := 1; ; fed++ {
		d, ok := src.Next()
		if !ok {
			break
		}
		sel.Feed(&d)
		if fed == warm {
			joinedAtWarm = w.joinedPending
		}
	}
	return joinedAtWarm, len(sel.Flush())
}

// checkSegmentFacts checks the log's copies of the selector's segment
// facts: each segment's uop and memory-uop counts, joined segments
// included, equal a recount over its instructions in the arena.
func checkSegmentFacts(t *testing.T, l *SelectionLog) {
	t.Helper()
	joined := 0
	for _, seg := range l.segs {
		uops, mem := 0, 0
		for _, d := range seg.Insts {
			uops += len(d.Inst.Uops)
			for _, u := range d.Inst.Uops {
				if u.Op.IsMem() {
					mem++
				}
			}
		}
		if uops != seg.Uops || mem != seg.MemUops {
			t.Fatalf("%s: logged segment %v counts %d uops, %d memory uops; recount %d, %d",
				l.prof.Name, seg.TID, seg.Uops, seg.MemUops, uops, mem)
		}
		if seg.Joined > 1 {
			joined++
		}
	}
	if joined == 0 {
		t.Fatalf("%s: the log holds no joined segment", l.prof.Name)
	}
}

// TestReplayMatchesStreaming is the equivalence gate of the selection log:
// for every model, replaying a recorded log gives exactly the result of
// RunSourceWarm over the same stream. reflect.DeepEqual compares every
// Result field, which is stricter than the result digest. Each model keeps
// one streaming and one replaying machine from a pool, Reset between
// budgets, so the comparison also covers dirtied-then-Reset machines. The
// budgets put the warm-up boundary both inside and outside a pending
// joined segment, and make the final Flush emit one or two segments; the
// test checks that both edges really occur.
func TestReplayMatchesStreaming(t *testing.T) {
	cases := []struct {
		app string
		n   int
	}{
		{"gzip", 6000},  // joined segment pending at the boundary; Flush emits 2
		{"swim", 10000}, // joined segment pending at the boundary; Flush emits 1
		{"gcc", 11000},  // boundary between segments; Flush emits 2
		{"swim", 7000},
	}
	pool := NewPool()
	models := config.All()
	stream := make([]*Machine, len(models))
	replay := make([]*Machine, len(models))
	for i, model := range models {
		stream[i], replay[i] = pool.Get(model), pool.Get(model)
	}
	var log SelectionLog
	sawJoined, sawFlush2 := false, false
	for _, c := range cases {
		prof, ok := workload.ByName(c.app)
		if !ok {
			t.Fatalf("unknown app %s", c.app)
		}
		warm := int(float64(c.n) * WarmupFraction)
		joined, flushed := selectionShape(prof, c.n, warm)
		sawJoined = sawJoined || joined
		sawFlush2 = sawFlush2 || flushed == 2

		prog := workload.GenerateCached(prof)
		log.Record(workload.NewStream(prog, c.n), prof, c.n, warm)
		checkSegmentFacts(t, &log)
		for i, model := range models {
			stream[i].Reset()
			replay[i].Reset()
			want := stream[i].RunSourceWarm(workload.NewStream(prog, c.n), prof, warm)
			got := replay[i].ReplayWarm(&log)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s n=%d: replay diverged from streaming:\n replay: %+v\n stream: %+v",
					model.ID, c.app, c.n, got, want)
			}
		}
	}
	if !sawJoined || !sawFlush2 {
		t.Fatalf("budgets no longer cover the edges: joined segment pending at warm-up %v, two-segment Flush %v",
			sawJoined, sawFlush2)
	}
	for i := range models {
		pool.Put(stream[i])
		pool.Put(replay[i])
	}
}
