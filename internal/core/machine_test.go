package core

import (
	"testing"

	"parrot/internal/config"
	"parrot/internal/energy"
	"parrot/internal/isa"
	"parrot/internal/trace"
	"parrot/internal/workload"
)

// runSmall is a test helper: a short warmed run.
func runSmall(t *testing.T, id config.ModelID, app string, n int) *Result {
	t.Helper()
	p, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown app %s", app)
	}
	return RunWarm(config.Get(id), p, n)
}

func TestBaselineRunCompletes(t *testing.T) {
	r := runSmall(t, config.N, "gzip", 30000)
	if r.Insts == 0 || r.Cycles == 0 {
		t.Fatalf("empty run: %+v", r)
	}
	if r.IPC() <= 0.1 || r.IPC() > 4 {
		t.Errorf("implausible IPC %v", r.IPC())
	}
	if r.HotInsts != 0 {
		t.Error("baseline must not execute hot instructions")
	}
	if r.DynEnergy <= 0 {
		t.Error("no dynamic energy accumulated")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := runSmall(t, config.TON, "gzip", 30000)
	b := runSmall(t, config.TON, "gzip", 30000)
	if a.Insts != b.Insts || a.Cycles != b.Cycles || a.DynEnergy != b.DynEnergy {
		t.Fatalf("nondeterministic run: %v/%v vs %v/%v", a.Insts, a.Cycles, b.Insts, b.Cycles)
	}
	if a.Counts != b.Counts {
		t.Fatal("nondeterministic event counts")
	}
}

func TestInstructionConservation(t *testing.T) {
	// Every committed instruction is accounted once: hot + cold = total,
	// and the total matches the measured stream window (within the
	// in-flight slack at the warmup boundary).
	for _, id := range []config.ModelID{config.N, config.TON, config.TOS} {
		r := runSmall(t, id, "vpr", 40000)
		if r.HotInsts+r.ColdInsts != r.Insts {
			// Instructions dispatched hot/cold are counted at fetch; the
			// committed count may differ only by the pipeline contents at
			// the reset boundary.
			// Worst-case slack: both windows plus the dispatch queue were
			// in flight when the warmup boundary reset the fetch counters.
			diff := int64(r.HotInsts+r.ColdInsts) - int64(r.Insts)
			if diff < -500 || diff > 500 {
				t.Errorf("%s: hot %d + cold %d != committed %d", id, r.HotInsts, r.ColdInsts, r.Insts)
			}
		}
	}
}

func TestTraceCacheMachineryEngages(t *testing.T) {
	r := runSmall(t, config.TON, "swim", 60000)
	if r.Coverage() < 0.5 {
		t.Errorf("swim coverage = %v, expected high", r.Coverage())
	}
	if r.Optimizations == 0 && r.OptExecs == 0 {
		t.Error("optimizer never engaged on swim")
	}
	if r.OptExecs > 0 && r.UopReduction() <= 0 {
		t.Error("optimized executions without uop reduction")
	}
	if r.TCStats.Lookups == 0 {
		t.Error("trace cache never probed")
	}
}

func TestOptimizedModelBeatsPlainTraceCache(t *testing.T) {
	tn := runSmall(t, config.TN, "flash", 60000)
	ton := runSmall(t, config.TON, "flash", 60000)
	if ton.IPC() <= tn.IPC() {
		t.Errorf("TON IPC %v must exceed TN %v on flash", ton.IPC(), tn.IPC())
	}
	if ton.DynEnergy >= tn.DynEnergy {
		t.Errorf("TON energy %v must undercut TN %v (fewer uops executed)", ton.DynEnergy, tn.DynEnergy)
	}
}

func TestWideBeatsNarrow(t *testing.T) {
	n := runSmall(t, config.N, "swim", 60000)
	w := runSmall(t, config.W, "swim", 60000)
	if w.IPC() <= n.IPC() {
		t.Errorf("W IPC %v must exceed N %v", w.IPC(), n.IPC())
	}
	if w.DynEnergy <= n.DynEnergy {
		t.Errorf("W energy %v must exceed N %v", w.DynEnergy, n.DynEnergy)
	}
}

func TestSplitModelRuns(t *testing.T) {
	r := runSmall(t, config.TOS, "flash", 40000)
	if r.Insts == 0 {
		t.Fatal("split machine committed nothing")
	}
	if r.Coverage() < 0.3 {
		t.Errorf("split machine coverage = %v", r.Coverage())
	}
	if r.Counts[energy.EvStateSwitch] == 0 {
		t.Error("split machine never charged a state switch")
	}
}

func TestHotPipelineSkipsDecode(t *testing.T) {
	n := runSmall(t, config.N, "swim", 50000)
	ton := runSmall(t, config.TON, "swim", 50000)
	decN := n.Counts[energy.EvDecodeSimple] + n.Counts[energy.EvDecodeComplex]
	decT := ton.Counts[energy.EvDecodeSimple] + ton.Counts[energy.EvDecodeComplex]
	if decT >= decN/2 {
		t.Errorf("decoded insts: TON %d vs N %d — trace cache must bypass decode", decT, decN)
	}
	if ton.Counts[energy.EvTCReadUop] == 0 {
		t.Error("no trace-cache uop reads on a high-coverage app")
	}
}

func TestFig47Ordering(t *testing.T) {
	// Hot-trace misprediction < N's branch misprediction < TON's cold
	// residue misprediction (paper Figure 4.7).
	n := runSmall(t, config.N, "gcc", 60000)
	ton := runSmall(t, config.TON, "gcc", 60000)
	nBr := n.BranchStats.MispredictRate()
	coldBr := ton.BranchStats.MispredictRate()
	hotTr := ton.TPredStats.MispredictRate()
	if !(hotTr < nBr) {
		t.Errorf("trace mispredict %v should undercut N branch mispredict %v", hotTr, nBr)
	}
	if !(coldBr > nBr) {
		t.Errorf("cold-residue mispredict %v should exceed N's %v", coldBr, nBr)
	}
}

func TestCoverageOrdering(t *testing.T) {
	// Regular FP code must reach higher coverage than irregular integer
	// code (paper Figure 4.8: ~90% vs 60-70%).
	fp := runSmall(t, config.TON, "swim", 60000)
	in := runSmall(t, config.TON, "gcc", 60000)
	if fp.Coverage() < 0.8 {
		t.Errorf("FP coverage = %v, want ~0.9", fp.Coverage())
	}
	if in.Coverage() > fp.Coverage() {
		t.Errorf("integer coverage %v above FP %v", in.Coverage(), fp.Coverage())
	}
}

func TestEnergyBreakdownConsistent(t *testing.T) {
	r := runSmall(t, config.TON, "flash", 40000)
	sum := 0.0
	for _, v := range r.Breakdown {
		sum += v
	}
	if diff := sum - r.DynEnergy; diff > 1e-6*r.DynEnergy || diff < -1e-6*r.DynEnergy {
		t.Errorf("breakdown sum %v != dyn energy %v", sum, r.DynEnergy)
	}
	if r.Breakdown[energy.CompTraceCache] == 0 {
		t.Error("trace-cache component empty on a PARROT model")
	}
}

func TestLeakageScalesWithAreaAndTime(t *testing.T) {
	r := runSmall(t, config.N, "gzip", 30000)
	e1 := r.TotalEnergy(10)
	e2 := r.TotalEnergy(20)
	if e2 <= e1 {
		t.Error("higher P_MAX must raise total energy")
	}
	want := r.DynEnergy + energy.Leakage(10, r.L2MB, r.CoreAreaK, r.Cycles)
	if d := e1 - want; d > 1e-9 || d < -1e-9 {
		t.Errorf("TotalEnergy = %v, want %v", e1, want)
	}
}

func TestTraceMatchGuardsCollisions(t *testing.T) {
	// traceMatches must reject frames whose shape disagrees with the
	// segment (hash-collision defense).
	m := New(config.Get(config.TON))
	p, _ := workload.ByName("gzip")
	prog := workload.Generate(p)
	stream := workload.NewStream(prog, 5000)
	sel := trace.NewSelector()
	var segs []trace.Segment
	for len(segs) < 6 {
		d, ok := stream.Next()
		if !ok {
			break
		}
		segs = append(segs, sel.Feed(&d)...)
	}
	if len(segs) < 2 {
		t.Fatal("not enough segments")
	}
	tr := trace.Build(&segs[0])
	if !m.traceMatches(tr, &segs[0]) {
		t.Error("trace must match the segment it was built from")
	}
	var other *trace.Segment
	for i := 1; i < len(segs); i++ {
		if segs[i].NumInsts() != segs[0].NumInsts() {
			other = &segs[i]
			break
		}
	}
	if other != nil && m.traceMatches(tr, other) {
		t.Error("trace matched a differently-shaped segment")
	}
}

// TestTraceFormsDecoded checks the trace half of the decode-once
// invariant: right after every write of a trace — construction by
// BuildInto on hot promotion and rewriting by the optimizer on blazing
// promotion — each of its uops carries the dispatch form a fresh decode
// gives, over a TON and a TOS run. A write only ever targets the executed
// segment's own key, so the resident trace under that key is the one just
// written.
func TestTraceFormsDecoded(t *testing.T) {
	for _, id := range []config.ModelID{config.TON, config.TOS} {
		builds, opts := 0, 0
		for _, app := range []string{"gzip", "gcc", "perlbmk", "swim"} {
			p, _ := workload.ByName(app)
			var log SelectionLog
			log.RecordWarm(p, 50000)
			m := New(config.Get(id))
			for i := range log.segs {
				seg := &log.segs[i]
				b, o := m.buildCount, m.optCount
				m.execSegment(seg)
				if m.buildCount == b && m.optCount == o {
					continue
				}
				builds += int(m.buildCount - b)
				opts += int(m.optCount - o)
				key := seg.TID.Key()
				for _, tr := range m.tc.Resident() {
					if tr.TID.Key() != key {
						continue
					}
					for k := range tr.Uops {
						u := &tr.Uops[k]
						if u.Form != isa.FormOf(u) {
							t.Fatalf("%s/%s: trace %v (optimized %v) uop %d %v: form %+v, fresh decode %+v",
								id, app, tr.TID, tr.Optimized, k, *u, u.Form, isa.FormOf(u))
						}
					}
				}
			}
		}
		if builds == 0 || opts == 0 {
			t.Fatalf("%s: %d builds and %d optimizations checked; the runs must exercise both", id, builds, opts)
		}
		t.Logf("%s: %d builds and %d optimizations checked", id, builds, opts)
	}
}

func TestWarmupResetClearsCounters(t *testing.T) {
	m := New(config.Get(config.TON))
	p, _ := workload.ByName("gzip")
	prog := workload.Generate(p)
	stream := workload.NewStream(prog, 8000)
	for {
		d, ok := stream.Next()
		if !ok {
			break
		}
		for _, seg := range m.sel.Feed(&d) {
			m.execSegment(&seg)
		}
	}
	if m.clock == 0 {
		t.Fatal("machine did not advance")
	}
	m.ResetStats()
	if m.insts != 0 || m.counts != (energy.Counts{}) || m.clockStart != m.clock {
		t.Error("reset left residual statistics")
	}
	if m.bp.Stats.Lookups != 0 || m.cold.Stats.UopsDispatched != 0 {
		t.Error("reset missed component statistics")
	}
}

func TestAllModelsRunAllSuites(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix smoke test")
	}
	apps := []string{"gcc", "swim", "word", "flash", "dotnet-image"}
	for _, m := range config.All() {
		for _, app := range apps {
			r := runSmall(t, m.ID, app, 20000)
			if r.Insts == 0 || r.Cycles == 0 {
				t.Errorf("%s/%s: empty run", m.ID, app)
			}
		}
	}
}
