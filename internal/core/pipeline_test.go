package core

import (
	"testing"

	"parrot/internal/config"
	"parrot/internal/energy"
	"parrot/internal/workload"
)

func TestTraceAbortsAreCharged(t *testing.T) {
	// Irregular code produces trace mispredictions; every abort must
	// charge recovery energy and wasted hot-pipeline work.
	r := runSmall(t, config.TON, "gcc", 60000)
	if r.TraceAborts == 0 {
		t.Fatal("gcc never aborted a trace — the predictor cannot be that good")
	}
	if r.Counts[energy.EvFlushRecovery] < r.TraceAborts {
		t.Errorf("aborts %d not all charged recovery (%d)", r.TraceAborts, r.Counts[energy.EvFlushRecovery])
	}
}

func TestBlazingGatesOptimization(t *testing.T) {
	// With an unreachable blazing threshold nothing is optimized while the
	// trace cache still runs hot.
	m := config.Get(config.TON)
	m.BlazeThreshold = 1 << 30
	p, _ := workload.ByName("swim")
	r := RunWarm(m, p, 40000)
	if r.Optimizations != 0 || r.OptExecs != 0 {
		t.Errorf("optimizer ran despite unreachable threshold: %d/%d", r.Optimizations, r.OptExecs)
	}
	if r.Coverage() < 0.5 {
		t.Errorf("coverage collapsed without the optimizer: %v", r.Coverage())
	}
}

func TestHotFilterGatesConstruction(t *testing.T) {
	// An unreachable hot threshold keeps the trace cache empty: the PARROT
	// machine degrades to the baseline.
	m := config.Get(config.TON)
	m.HotThreshold = 1 << 30
	p, _ := workload.ByName("swim")
	r := RunWarm(m, p, 40000)
	if r.TraceBuilds != 0 || r.HotInsts != 0 {
		t.Errorf("traces built despite unreachable hot threshold: %d builds", r.TraceBuilds)
	}
}

func TestOptimizerBusyThrottles(t *testing.T) {
	// The non-pipelined optimizer (100-cycle occupancy) cannot optimize
	// every trace instantly; with threshold 1 it must skip some
	// promotions. This exercises the busy/forget path.
	m := config.Get(config.TON)
	m.BlazeThreshold = 1
	p, _ := workload.ByName("gcc")
	r := RunWarm(m, p, 40000)
	if r.Optimizations == 0 {
		t.Fatal("no optimizations at threshold 1")
	}
}

func TestEnergyAttributionColdVsHot(t *testing.T) {
	// A high-coverage run charges trace-cache reads instead of decode; a
	// baseline charges decode and zero trace events.
	n := runSmall(t, config.N, "swim", 40000)
	for _, ev := range []energy.Event{energy.EvTCLookup, energy.EvTCReadUop, energy.EvTPredLookup, energy.EvHotFilter} {
		if n.Counts[ev] != 0 {
			t.Errorf("baseline charged trace event %v", ev)
		}
	}
	ton := runSmall(t, config.TON, "swim", 40000)
	if ton.Counts[energy.EvTCReadUop] == 0 || ton.Counts[energy.EvTPredLookup] == 0 {
		t.Error("PARROT model missing trace event charges")
	}
}

func TestPrefetcherReducesMemoryEnergyEvents(t *testing.T) {
	// The tagged prefetcher hides streaming misses: demand L1D misses must
	// be well below the no-prefetch line-touch count on swim.
	r := runSmall(t, config.N, "swim", 40000)
	accesses := r.Counts[energy.EvL1DAccess]
	misses := r.Counts[energy.EvL1DMiss]
	if accesses == 0 {
		t.Fatal("no data accesses")
	}
	if rate := float64(misses) / float64(accesses); rate > 0.05 {
		t.Errorf("swim L1D demand miss rate = %v, prefetcher ineffective", rate)
	}
}

func TestTOSUsesBothEngines(t *testing.T) {
	m := New(config.Get(config.TOS))
	p, _ := workload.ByName("flash")
	var log SelectionLog
	log.RecordWarm(p, 30000)
	for i := range log.segs {
		m.execSegment(&log.segs[i])
	}
	for m.dqLen() > 0 {
		m.tick()
	}
	for m.cold.InFlight() > 0 || m.hot.InFlight() > 0 {
		m.tick()
	}
	if m.cold.Stats.UopsCommitted == 0 {
		t.Error("cold core idle on split machine")
	}
	if m.hot.Stats.UopsCommitted == 0 {
		t.Error("hot core idle on split machine")
	}
	if m.hot == m.cold {
		t.Error("split machine must instantiate two engines")
	}
}

func TestUnifiedSharesOneEngine(t *testing.T) {
	m := New(config.Get(config.TON))
	if m.hot != m.cold {
		t.Error("unified machine must share the engine")
	}
}

func TestColdOnlyAppStillWorks(t *testing.T) {
	// An app profile with no loops exercises the pure-cold path on a
	// PARROT machine.
	p, _ := workload.ByName("gcc")
	p.HotFraction = 0
	p.Name = "coldonly"
	r := RunWarm(config.Get(config.TON), p, 20000)
	if r.Insts == 0 {
		t.Fatal("cold-only run empty")
	}
	if r.Coverage() > 0.4 {
		t.Errorf("cold-only app reached coverage %v", r.Coverage())
	}
}

func TestHotOnlyAppWorks(t *testing.T) {
	p, _ := workload.ByName("swim")
	p.HotFraction = 1.0
	p.Name = "hotonly"
	r := RunWarm(config.Get(config.TON), p, 20000)
	if r.Insts == 0 {
		t.Fatal("hot-only run empty")
	}
	if r.Coverage() < 0.7 {
		t.Errorf("hot-only app coverage %v", r.Coverage())
	}
}

func TestShortRunsDoNotPanic(t *testing.T) {
	// Degenerate stream lengths exercise flush/drain edges.
	p, _ := workload.ByName("gzip")
	for _, n := range []int{1, 2, 10, 100} {
		for _, id := range []config.ModelID{config.N, config.TON, config.TOS} {
			r := RunWarm(config.Get(id), p, n)
			if r == nil {
				t.Fatalf("nil result for n=%d", n)
			}
		}
	}
}

func TestCyclesMonotoneInInstructions(t *testing.T) {
	p, _ := workload.ByName("word")
	short := RunWarm(config.Get(config.N), p, 20000)
	long := RunWarm(config.Get(config.N), p, 60000)
	if long.Cycles <= short.Cycles {
		t.Errorf("cycles not monotone: %d (20k) vs %d (60k)", short.Cycles, long.Cycles)
	}
	if long.Insts <= short.Insts {
		t.Errorf("insts not monotone")
	}
}
