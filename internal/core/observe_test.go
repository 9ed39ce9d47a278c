package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"parrot/internal/config"
	"parrot/internal/obs"
	"parrot/internal/ooo"
	"parrot/internal/trace"
	"parrot/internal/workload"
)

// scopeRun executes one warmed run on a fresh machine with a recorder
// attached and returns both.
func scopeRun(t *testing.T, id config.ModelID, app string, n int) (*Result, *obs.Recorder) {
	t.Helper()
	model := config.Get(id)
	prof, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	m := New(model)
	rec := obs.NewRecorder(obs.Options{IntervalInsts: 500})
	m.Attach(rec)
	return RunWarmOn(m, prof, n), rec
}

// TestProbesPreserveResults is the zero-cost contract's correctness half:
// attaching the full probe suite must not change a single result field —
// probes observe, they never decide.
func TestProbesPreserveResults(t *testing.T) {
	for _, id := range []config.ModelID{config.N, config.TON, config.TOS} {
		model := config.Get(id)
		prof, _ := workload.ByName("swim")

		base := RunWarmFresh(model, prof, 40_000)
		instrumented, rec := scopeRun(t, id, "swim", 40_000)

		if *base != *instrumented {
			t.Errorf("%s: instrumented result differs from baseline\nbase: %+v\nwith: %+v",
				id, base, instrumented)
		}
		if rec.Bus.Len() == 0 {
			t.Errorf("%s: recorder attached but no events recorded", id)
		}
	}
}

// TestSkipAttribution pins the fast-forward accounting: intervals tile the
// run exactly (no cycles vanish at Engine.Skip windows, no artificial IPC
// spikes at boundaries), and skipped cycles never exceed the interval span.
func TestSkipAttribution(t *testing.T) {
	res, rec := scopeRun(t, config.TON, "swim", 40_000)
	checkTiling(t, res, rec)
}

// checkTiling asserts the fast-forward accounting rules on one observed run.
func checkTiling(t *testing.T, res *Result, rec *obs.Recorder) {
	t.Helper()
	ivs := rec.Series.Intervals
	if len(ivs) < 3 {
		t.Fatalf("only %d intervals", len(ivs))
	}
	for i := range ivs {
		iv := &ivs[i]
		if iv.EndCycle < iv.StartCycle {
			t.Fatalf("interval %d: end %d < start %d", i, iv.EndCycle, iv.StartCycle)
		}
		if iv.Cycles != iv.EndCycle-iv.StartCycle {
			t.Errorf("interval %d: cycles %d != span %d", i, iv.Cycles, iv.EndCycle-iv.StartCycle)
		}
		if iv.SkippedCycles > iv.Cycles {
			t.Errorf("interval %d: skipped %d > cycles %d", i, iv.SkippedCycles, iv.Cycles)
		}
		if i > 0 && iv.StartCycle != ivs[i-1].EndCycle {
			t.Errorf("interval %d: gap/overlap at boundary: start %d, prev end %d",
				i, iv.StartCycle, ivs[i-1].EndCycle)
		}
	}

	// The intervals tile the whole run: first starts at attach (cycle 0),
	// last ends at the drained machine's final cycle.
	if ivs[0].StartCycle != 0 {
		t.Errorf("first interval starts at %d", ivs[0].StartCycle)
	}
	total, skipped := rec.Series.TotalCycles()
	if want := ivs[len(ivs)-1].EndCycle; total != want {
		t.Errorf("interval cycles sum %d != clock span %d", total, want)
	}
	if skipped == 0 {
		t.Log("note: no cycles were fast-forwarded in this run")
	}

	// Measured (non-warmup) intervals must account for the measured window.
	var measured uint64
	for i := range ivs {
		if !ivs[i].Warmup {
			measured += ivs[i].Insts
		}
	}
	if measured != res.Insts {
		t.Errorf("measured interval insts %d != result insts %d", measured, res.Insts)
	}

	// Per-lane occupancy histograms saw every cycle, including skips.
	rob, _ := rec.Series.Lane(0)
	if rob.Total() != total {
		t.Errorf("occupancy samples %d != cycles %d", rob.Total(), total)
	}
}

// TestBlockedSkipRecorderParity pins that fast-forwarding dispatch-blocked
// windows takes no second code path under observation. The observed run
// does the same kernel work as an unobserved one (the windows are still
// skipped), its bus carries one stall event per lost dispatch cycle —
// exactly the engines' ROB-full and IQ-full counts, lane by lane — and its
// intervals still tile the run.
func TestBlockedSkipRecorderParity(t *testing.T) {
	prof, _ := workload.ByName("swim")
	for _, id := range []config.ModelID{config.TON, config.TOS} {
		model := config.Get(id)
		m := New(model)
		rec := obs.NewRecorder(obs.Options{IntervalInsts: 500, MaxBusEvents: 1 << 24})
		m.Attach(rec)
		res := RunWarmOn(m, prof, 40_000)
		plain := New(model)
		RunWarmOn(plain, prof, 40_000)
		if m.Work() != plain.Work() {
			t.Errorf("%s: observed work %+v, unobserved %+v", id, m.Work(), plain.Work())
		}
		if rec.Bus.Dropped > 0 {
			t.Fatalf("%s: bus dropped %d events", id, rec.Bus.Dropped)
		}

		// Count the measured window's stall events: those after the
		// measurement-start marker, which ResetStats emits before zeroing
		// the engine counters.
		var rob, iq [2]uint64
		measuring := false
		rec.Bus.Each(func(e *obs.Event) {
			switch {
			case e.Kind == obs.KMeasureStart:
				measuring = true
			case e.Kind == obs.KStallROB && measuring:
				rob[e.Lane]++
			case e.Kind == obs.KStallIQ && measuring:
				iq[e.Lane]++
			}
		})
		t.Logf("%s: stall events rob=%v iq=%v, work %+v", id, rob, iq, m.Work())
		lanes := []*ooo.Engine{m.cold}
		if m.split {
			lanes = append(lanes, m.hot)
		}
		for lane, eng := range lanes {
			st := &eng.Stats
			if rob[lane] != st.StallROBFull || iq[lane] != st.StallIQFull {
				t.Errorf("%s lane %d: stall events rob=%d iq=%d, engine counts rob=%d iq=%d",
					id, lane, rob[lane], iq[lane], st.StallROBFull, st.StallIQFull)
			}
		}
		if rob[0]+iq[0]+rob[1]+iq[1] == 0 {
			t.Errorf("%s: no dispatch stalls, so no blocked window was exercised", id)
		}
		checkTiling(t, res, rec)
	}
}

// TestScopeArtifactsParse runs a real TON simulation and validates every
// artifact the observability layer exports.
func TestScopeArtifactsParse(t *testing.T) {
	_, rec := scopeRun(t, config.TON, "swim", 40_000)

	// Interval time series (JSON).
	var jbuf bytes.Buffer
	if err := rec.WriteSeriesJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var sdoc obs.SeriesDoc
	if err := json.Unmarshal(jbuf.Bytes(), &sdoc); err != nil {
		t.Fatalf("series JSON does not parse: %v", err)
	}
	if len(sdoc.Intervals) == 0 || sdoc.IntervalInsts != 500 {
		t.Errorf("series doc: %d intervals, K=%d", len(sdoc.Intervals), sdoc.IntervalInsts)
	}

	// Interval time series (CSV): header plus one line per interval.
	var cbuf bytes.Buffer
	if err := rec.WriteSeriesCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(cbuf.String(), "\n"), "\n")
	if len(lines) != 1+len(sdoc.Intervals) {
		t.Errorf("csv lines = %d, want %d", len(lines), 1+len(sdoc.Intervals))
	}

	// Kanata pipeline log.
	var kbuf bytes.Buffer
	if err := rec.WriteKanata(&kbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(kbuf.String(), "Kanata\t0004\n") {
		t.Error("kanata header missing")
	}
	if !strings.Contains(kbuf.String(), "\nR\t") {
		t.Error("kanata log has no retirements")
	}

	// Chrome trace events.
	var tbuf bytes.Buffer
	if err := rec.WriteChromeTrace(&tbuf); err != nil {
		t.Fatal(err)
	}
	var cdoc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(tbuf.Bytes(), &cdoc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(cdoc.TraceEvents) == 0 {
		t.Error("chrome trace is empty")
	}

	// Trace biographies.
	var bbuf bytes.Buffer
	if err := rec.WriteBiographies(&bbuf, 0); err != nil {
		t.Fatal(err)
	}
	var bdoc obs.BioDoc
	if err := json.Unmarshal(bbuf.Bytes(), &bdoc); err != nil {
		t.Fatalf("biographies do not parse: %v", err)
	}
	if bdoc.Count == 0 || len(bdoc.Traces) != bdoc.Count {
		t.Errorf("bio doc: count=%d traces=%d", bdoc.Count, len(bdoc.Traces))
	}
	// A TON run optimizes traces, so pass names must be recorded and at
	// least one biography must show optimizer impact.
	if len(bdoc.PassNames) == 0 {
		t.Error("no optimizer pass names recorded")
	}
	optimized := false
	for _, b := range bdoc.Traces {
		if b.Optimized && b.UopsBefore >= b.UopsAfter && b.Executions > 0 {
			optimized = true
		}
	}
	if !optimized {
		t.Error("no optimized trace biography found on TON")
	}
}

// TestRecorderDetachedOnReset pins the machine-pooling Reset protocol for
// the observability layer: a pooled machine never leaks its previous run's
// recorder.
func TestRecorderDetachedOnReset(t *testing.T) {
	model := config.Get(config.TON)
	prof, _ := workload.ByName("swim")
	m := New(model)
	rec := obs.NewRecorder(obs.Options{})
	m.Attach(rec)
	RunWarmOn(m, prof, 20_000)
	n := rec.Bus.Len()
	if n == 0 {
		t.Fatal("recorder saw nothing")
	}
	m.Reset()
	if m.Recorder() != nil {
		t.Fatal("Reset must detach the recorder")
	}
	RunWarmOn(m, prof, 20_000)
	if rec.Bus.Len() != n {
		t.Errorf("detached recorder still received events: %d -> %d", n, rec.Bus.Len())
	}
}

// TestPipeSwitchEventsBalance sanity-checks the fetch-selector probe: pipe
// switches alternate directions, so hot->cold and cold->hot counts differ by
// at most one.
func TestPipeSwitchEventsBalance(t *testing.T) {
	_, rec := scopeRun(t, config.TON, "swim", 40_000)
	var toHot, toCold int
	rec.Bus.Each(func(e *obs.Event) {
		if e.Kind == obs.KPipeSwitch {
			if e.Lane == 1 {
				toHot++
			} else {
				toCold++
			}
		}
	})
	if toHot == 0 {
		t.Fatal("no pipeline switches recorded on TON")
	}
	if d := toHot - toCold; d < -1 || d > 1 {
		t.Errorf("switch balance off: %d to-hot vs %d to-cold", toHot, toCold)
	}
}

// doubleCompletions feeds prof's n-instruction stream through a bare
// selector and counts the Feed calls that complete two segments at once
// (a frame-capacity split followed by a terminating instruction), and the
// segments the final Flush completes.
func doubleCompletions(prof workload.Profile, n int) (feeds, flushed int) {
	sel := trace.NewSelector()
	src := workload.NewStream(workload.GenerateCached(prof), n)
	for {
		d, ok := src.Next()
		if !ok {
			break
		}
		if len(sel.Feed(&d)) == 2 {
			feeds++
		}
	}
	return feeds, len(sel.Flush())
}

// TestSelectionEventsFromLog pins where an observed run's selection events
// sit on the bus. The machine emits them from its log just before each
// segment executes: the segment's join events (the k-th carrying the TID
// of its first k units and the count k), then its emission, all stamped
// with the cycle at which the segment starts executing, then the
// segment's own events. Three kinds of event sit elsewhere than where a
// selector running in step with the machine emitted them: the joins of the
// segment pending at the warm-up boundary follow the measurement-start
// marker instead of preceding it, and when one Feed or the final Flush
// completes two segments, the second is emitted after the first has
// executed, at its own start cycle. The runs cover all three.
func TestSelectionEventsFromLog(t *testing.T) {
	cases := []struct {
		id  config.ModelID
		app string
		n   int
	}{
		{config.TON, "gzip", 6000},  // joined segment pending at warm-up; Flush completes 2
		{config.N, "crafty", 50000}, // one Feed completes 2
	}
	warmJoins, feeds2, flush2 := false, false, false
	for _, c := range cases {
		prof, _ := workload.ByName(c.app)
		var log SelectionLog
		log.RecordWarm(prof, c.n)
		feeds, flushed := doubleCompletions(prof, c.n)
		feeds2 = feeds2 || feeds > 0
		flush2 = flush2 || flushed == 2
		// A join is fed by the last instruction of the unit it merges.
		w := &log.segs[log.warm]
		warmJoins = warmJoins || (w.Joined > 1 && segStart(&log, log.warm)+2*len(w.Insts)/w.Joined <= int(float64(c.n)*WarmupFraction))

		m := New(config.Get(c.id))
		rec := obs.NewRecorder(obs.Options{MaxBusEvents: 1 << 24})
		m.Attach(rec)
		RunWarmOn(m, prof, c.n)
		var ev []obs.Event
		rec.Bus.Each(func(e *obs.Event) {
			switch e.Kind {
			case obs.KSelectJoin, obs.KSelectEmit, obs.KSegment, obs.KMeasureStart:
				ev = append(ev, *e)
			}
		})
		next := func(want obs.Kind) obs.Event {
			t.Helper()
			if len(ev) == 0 || ev[0].Kind != want {
				t.Fatalf("%s/%s: expected a %v event, bus has %v", c.id, c.app, want, ev[:min(len(ev), 1)])
			}
			e := ev[0]
			ev = ev[1:]
			return e
		}
		for i := range log.segs {
			s := &log.segs[i]
			if i == log.warm {
				next(obs.KMeasureStart)
			}
			var joins []obs.Event
			for k := 2; k <= s.Joined; k++ {
				e := next(obs.KSelectJoin)
				if want := s.TID.Prefix(k * s.NDirsPerUnit()).Key(); e.A != want || e.B != uint64(k) {
					t.Fatalf("%s/%s segment %d: join %d has key %x count %d, want %x %d", c.id, c.app, i, k, e.A, e.B, want, k)
				}
				joins = append(joins, e)
			}
			emit := next(obs.KSelectEmit)
			if uops, joined := obs.UnpackPair(emit.B); emit.A != s.TID.Key() || uops != s.Uops || joined != s.Joined {
				t.Fatalf("%s/%s segment %d: emission %x %d/%d, want %x %d/%d", c.id, c.app, i, emit.A, uops, joined, s.TID.Key(), s.Uops, s.Joined)
			}
			seg := next(obs.KSegment)
			for _, e := range append(joins, emit) {
				if e.Cycle != seg.Cycle {
					t.Fatalf("%s/%s segment %d: %v at cycle %d, segment executes at %d", c.id, c.app, i, e.Kind, e.Cycle, seg.Cycle)
				}
			}
		}
		if len(ev) != 0 {
			t.Fatalf("%s/%s: %d events after the last segment", c.id, c.app, len(ev))
		}
	}
	if !warmJoins || !feeds2 || !flush2 {
		t.Fatalf("runs no longer cover the moved events: joins at warm-up %v, two-segment Feed %v, two-segment Flush %v",
			warmJoins, feeds2, flush2)
	}
}
