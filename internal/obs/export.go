package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"parrot/internal/isa"
	"parrot/internal/metrics"
	"parrot/internal/telemetry"
)

// ---------------------------------------------------------------------------
// Time-series artifacts
// ---------------------------------------------------------------------------

// histJSON is the serialized form of an occupancy histogram.
type histJSON struct {
	Bounds []int    `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Mean   float64  `json:"mean"`
	Max    int      `json:"max"`
	Total  uint64   `json:"total"`
}

func histToJSON(h *metrics.Histogram) *histJSON {
	if h == nil {
		return nil
	}
	return &histJSON{Bounds: h.Bounds, Counts: h.Counts, Mean: h.Mean(), Max: h.Max(), Total: h.Total()}
}

// SeriesDoc is the top-level schema of the time-series JSON artifact.
type SeriesDoc struct {
	IntervalInsts int        `json:"intervalInsts"`
	Components    []string   `json:"components"` // names for energyByComponent
	Intervals     []Interval `json:"intervals"`

	// Run-level occupancy histograms per lane (lane 1 nil for unified
	// models), sampled every simulated cycle including skipped windows.
	ROBHist [2]*histJSON `json:"robHist"`
	IQHist  [2]*histJSON `json:"iqHist"`
}

// SeriesDoc assembles the exportable view of the recorder's time series.
func (r *Recorder) SeriesDoc() *SeriesDoc {
	d := &SeriesDoc{
		IntervalInsts: r.Series.K,
		Components:    EnergyComponentNames(),
		Intervals:     r.Series.Intervals,
	}
	for lane := 0; lane < 2; lane++ {
		rob, iq := r.Series.Lane(lane)
		d.ROBHist[lane] = histToJSON(rob)
		d.IQHist[lane] = histToJSON(iq)
	}
	return d
}

// WriteSeriesJSON emits the interval time series as indented JSON.
func (r *Recorder) WriteSeriesJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.SeriesDoc())
}

// WriteSeriesCSV emits the interval time series as CSV (one row per
// interval; energy components flattened into suffixed columns).
func (r *Recorder) WriteSeriesCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "index,start_cycle,end_cycle,cycles,skipped_cycles,insts,hot_insts,cold_insts,"+
		"ipc,hot_coverage,tc_lookups,tc_hits,tc_hit_rate,"+
		"rob_occ_cold,iq_occ_cold,rob_occ_hot,iq_occ_hot,dyn_energy,warmup")
	for _, c := range EnergyComponentNames() {
		fmt.Fprintf(bw, ",e_%s", c)
	}
	fmt.Fprintln(bw)
	for i := range r.Series.Intervals {
		iv := &r.Series.Intervals[i]
		warm := 0
		if iv.Warmup {
			warm = 1
		}
		fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%d,%d,%.6f,%.3f,%.3f,%.3f,%.3f,%.6g,%d",
			iv.Index, iv.StartCycle, iv.EndCycle, iv.Cycles, iv.SkippedCycles,
			iv.Insts, iv.HotInsts, iv.ColdInsts, iv.IPC, iv.Coverage,
			iv.TCLookups, iv.TCHits, iv.TCHitRate,
			iv.ROBOcc[0], iv.IQOcc[0], iv.ROBOcc[1], iv.IQOcc[1], iv.DynEnergy, warm)
		for _, e := range iv.Energy {
			fmt.Fprintf(bw, ",%.6g", e)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ---------------------------------------------------------------------------
// Pipeline visualization: Chrome trace events
// ---------------------------------------------------------------------------

// chromeRows spreads uops across this many display rows per lane.
const chromeRows = 64

// WriteChromeTrace emits the per-uop pipeline lifecycle in Chrome
// trace-event format (load in chrome://tracing or Perfetto). Each fully
// retired uop contributes three spans — dispatch→issue (wait), issue→
// complete (exec), complete→commit (retire) — on pid = lane, tid = a
// round-robin display row. Cycles fill the format's microsecond fields;
// the encoding is telemetry.ChromeDoc, shared with request traces.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	doc := telemetry.ChromeDoc{DisplayTimeUnit: "ns"}
	for lane := 0; lane < 2; lane++ {
		p := r.Lanes[lane]
		if p == nil {
			continue
		}
		p.Each(func(u *UopRec) {
			if u.Commit == 0 { // truncated lifecycle (recording stopped mid-flight)
				return
			}
			name := isa.ExecClass(u.Class).String()
			row := int(u.Seq % chromeRows)
			args := map[string]any{"seq": u.Seq}
			if u.TraceEnd {
				args["traceEnd"] = true
			}
			add := func(cat string, from, to uint64) {
				if to < from {
					to = from
				}
				doc.TraceEvents = append(doc.TraceEvents, telemetry.ChromeEvent{
					Name: name, Cat: cat, Ph: "X", Ts: int64(from), Dur: int64(to - from),
					Pid: int(p.Lane), Tid: row, Args: args,
				})
			}
			add("wait", u.Dispatch, u.Issue)
			add("exec", u.Issue, u.Complete)
			add("retire", u.Complete, u.Commit)
		})
	}
	return doc.Write(w)
}

// ---------------------------------------------------------------------------
// Pipeline visualization: Kanata
// ---------------------------------------------------------------------------

// kanataLine is one pending Kanata command with its emission cycle.
type kanataLine struct {
	cycle uint64
	ord   int // stable tiebreak: original emission order
	text  string
}

// Kanata pipeline stage mnemonics.
const (
	kanataStageDispatch = "Dp"
	kanataStageExec     = "Ex"
	kanataStageRetire   = "Rt"
)

// WriteKanata emits the per-uop pipeline lifecycle as a Kanata 0004 log
// (the Onikiri/Konata pipeline viewer format). Only fully retired uops are
// emitted, so every instruction record is well formed: I/L, stage S/E pairs
// for dispatch-wait, execute and retire-wait, then R at commit.
func (r *Recorder) WriteKanata(w io.Writer) error {
	var lines []kanataLine
	ord := 0
	emit := func(cycle uint64, format string, args ...any) {
		lines = append(lines, kanataLine{cycle: cycle, ord: ord, text: fmt.Sprintf(format, args...)})
		ord++
	}

	uid := 0
	var insnID [2]int
	var retireID int
	for lane := 0; lane < 2; lane++ {
		p := r.Lanes[lane]
		if p == nil {
			continue
		}
		p.Each(func(u *UopRec) {
			if u.Commit == 0 {
				return
			}
			id := uid
			uid++
			iid := insnID[lane]
			insnID[lane]++
			cls := isa.ExecClass(u.Class).String()
			emit(u.Dispatch, "I\t%d\t%d\t%d", id, iid, lane)
			flags := ""
			if u.LastUop {
				flags += " !"
			}
			if u.TraceEnd {
				flags += " $"
			}
			emit(u.Dispatch, "L\t%d\t0\t%s #%d%s", id, cls, u.Seq, flags)
			emit(u.Dispatch, "S\t%d\t0\t%s", id, kanataStageDispatch)
			emit(u.Issue, "E\t%d\t0\t%s", id, kanataStageDispatch)
			emit(u.Issue, "S\t%d\t0\t%s", id, kanataStageExec)
			emit(u.Complete, "E\t%d\t0\t%s", id, kanataStageExec)
			emit(u.Complete, "S\t%d\t0\t%s", id, kanataStageRetire)
			emit(u.Commit, "E\t%d\t0\t%s", id, kanataStageRetire)
			rid := retireID
			retireID++
			emit(u.Commit, "R\t%d\t%d\t0", id, rid)
		})
	}

	// Kanata is a cycle-ordered command stream: sort by cycle (stable in
	// emission order within a cycle) and interleave C advances.
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].cycle != lines[j].cycle {
			return lines[i].cycle < lines[j].cycle
		}
		return lines[i].ord < lines[j].ord
	})

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "Kanata\t0004")
	if len(lines) == 0 {
		return bw.Flush()
	}
	cur := lines[0].cycle
	fmt.Fprintf(bw, "C=\t%d\n", cur)
	for i := range lines {
		if lines[i].cycle != cur {
			fmt.Fprintf(bw, "C\t%d\n", lines[i].cycle-cur)
			cur = lines[i].cycle
		}
		fmt.Fprintln(bw, lines[i].text)
	}
	return bw.Flush()
}

// ---------------------------------------------------------------------------
// Trace biographies
// ---------------------------------------------------------------------------

// BioDoc is the schema of the per-trace biography artifact.
type BioDoc struct {
	Count     int         `json:"count"`
	PassNames []string    `json:"optPassNames,omitempty"`
	Traces    []*TraceBio `json:"traces"`
}

// WriteBiographies emits the per-trace biography report as indented JSON,
// most-executed traces first. max > 0 truncates the list (Count still
// reports the full population).
func (r *Recorder) WriteBiographies(w io.Writer, max int) error {
	bios := r.Biographies()
	doc := BioDoc{Count: len(bios), PassNames: r.passNames, Traces: bios}
	if max > 0 && len(bios) > max {
		doc.Traces = bios[:max]
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}
