package core

import (
	"fmt"

	"parrot/internal/branch"
	"parrot/internal/config"
	"parrot/internal/energy"
	"parrot/internal/isa"
	"parrot/internal/ooo"
	"parrot/internal/tcache"
	"parrot/internal/tpred"
	"parrot/internal/workload"
)

// Result collects everything a single (model, application) run produces:
// timing, energy event counts, and the PARROT-specific statistics behind
// Figures 4.7–4.11.
type Result struct {
	Model config.ModelID
	App   string
	Suite workload.Suite

	// Performance.
	Insts  uint64 // committed IA32 instructions
	Cycles uint64

	// Instruction routing.
	HotInsts  uint64 // instructions committed via the hot pipeline
	ColdInsts uint64

	// Dynamic energy (leakage is added by the caller, which knows P_MAX).
	DynEnergy float64

	// Breakdown per component, dynamic energy only.
	Breakdown [energy.NumComponents]float64

	// Front-end behaviour (Figure 4.7).
	BranchStats branch.Stats
	TPredStats  tpred.Stats

	// Trace machinery (Figures 4.8, 4.10).
	TCStats      tcache.Stats
	TraceAborts  uint64
	TraceBuilds  uint64
	HotSegments  uint64
	ColdSegments uint64

	// Optimizer impact (Figures 4.9, 4.10). The Dyn* sums are weighted by
	// dynamic executions of optimized traces; Opt* sums are per optimizer
	// invocation.
	Optimizations  uint64
	OptUopsBefore  uint64
	OptUopsAfter   uint64
	OptCritBefore  uint64
	OptCritAfter   uint64
	DynUopsOrig    uint64
	DynUopsOpt     uint64
	DynCritOrig    uint64
	DynCritOpt     uint64
	OptTracesSeen  uint64 // distinct optimized traces executed in the window
	OptExecs       uint64 // dynamic executions of optimized traces
	UopsCommitted  uint64
	UopsDispatched uint64

	// Raw event counts (cold- and hot-priced vectors merged for reporting).
	Counts energy.Counts

	// CoreAreaK and L2MB parameterize the leakage formula.
	CoreAreaK float64
	L2MB      float64
}

// IPC returns committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Coverage returns the fraction of instructions executed on the hot
// pipeline (Figure 4.8).
func (r *Result) Coverage() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.HotInsts) / float64(r.HotInsts+r.ColdInsts)
}

// UopReduction returns the optimizer's dynamic uop reduction, weighted by
// executions of optimized traces (Figure 4.9).
func (r *Result) UopReduction() float64 {
	if r.DynUopsOrig == 0 {
		return 0
	}
	return 1 - float64(r.DynUopsOpt)/float64(r.DynUopsOrig)
}

// CritReduction returns the optimizer's dependency-path reduction, weighted
// by executions of optimized traces (Figure 4.9).
func (r *Result) CritReduction() float64 {
	if r.DynCritOrig == 0 {
		return 0
	}
	return 1 - float64(r.DynCritOpt)/float64(r.DynCritOrig)
}

// OptimizedTraceUtilization returns the mean dynamic executions per
// distinct optimized trace (Figure 4.10).
func (r *Result) OptimizedTraceUtilization() float64 {
	if r.OptTracesSeen == 0 {
		return 0
	}
	return float64(r.OptExecs) / float64(r.OptTracesSeen)
}

// AvgDynPower returns average dynamic power (energy units per cycle),
// which anchors the leakage formula's P_MAX.
func (r *Result) AvgDynPower() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return r.DynEnergy / float64(r.Cycles)
}

// TotalEnergy returns dynamic plus leakage energy for a given P_MAX.
func (r *Result) TotalEnergy(pmax float64) float64 {
	return r.DynEnergy + energy.Leakage(pmax, r.L2MB, r.CoreAreaK, r.Cycles)
}

// CMPW returns the cubic-MIPS-per-watt metric for a given P_MAX.
func (r *Result) CMPW(pmax float64) float64 {
	return energy.CMPW(r.Insts, r.Cycles, r.TotalEnergy(pmax))
}

func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: IPC %.3f, energy %.3g, coverage %.2f",
		r.Model, r.App, r.IPC(), r.DynEnergy, r.Coverage())
}

// engineEvents converts execution-engine statistics into energy events.
func engineEvents(st *ooo.Stats, c *energy.Counts) {
	c.Add(energy.EvRename, st.UopsDispatched)
	c.Add(energy.EvIQInsert, st.UopsDispatched)
	c.Add(energy.EvROBWrite, st.ROBWrites)
	c.Add(energy.EvROBRead, st.ROBReads)
	c.Add(energy.EvRegRead, st.RegReads)
	c.Add(energy.EvRegWrite, st.RegWrites)
	c.Add(energy.EvWakeup, st.Wakeups)
	c.Add(energy.EvSelect, st.UopsIssued)
	c.Add(energy.EvCommit, st.UopsCommitted)

	classEvent := [isa.NumExecClasses]energy.Event{
		isa.ClassNop:    energy.EvALU,
		isa.ClassIntALU: energy.EvALU,
		isa.ClassIntMul: energy.EvMul,
		isa.ClassIntDiv: energy.EvDiv,
		isa.ClassFPAdd:  energy.EvFPAdd,
		isa.ClassFPMul:  energy.EvFPMul,
		isa.ClassFPDiv:  energy.EvFPDiv,
		isa.ClassLoad:   energy.EvAGU,
		isa.ClassStore:  energy.EvAGU,
		isa.ClassBranch: energy.EvBrUnit,
	}
	for cls, n := range st.OpsByClass {
		c.Add(classEvent[cls], n)
	}
}

// collect finalizes all statistics into a Result. It reads the machine
// without mutating it: the energy-event vectors are folded on copies.
func (m *Machine) collect(prof workload.Profile) *Result {
	// Engine-derived events.
	counts, countsHot := m.counts, m.countsHot
	engineEvents(&m.cold.Stats, &counts)
	uopsCommitted, uopsDispatched := m.cold.Stats.UopsCommitted, m.cold.Stats.UopsDispatched
	if m.model.Split {
		engineEvents(&m.hot.Stats, &countsHot)
		uopsCommitted += m.hot.Stats.UopsCommitted
		uopsDispatched += m.hot.Stats.UopsDispatched
	}

	// Memory hierarchy events.
	counts.Add(energy.EvFetchLine, m.hier.L1I.Stats.Accesses)
	counts.Add(energy.EvL1DAccess, m.hier.L1D.Stats.Accesses)
	counts.Add(energy.EvL1DMiss, m.hier.L1D.Stats.Misses)
	counts.Add(energy.EvL2Access, m.hier.L2.Stats.Accesses)
	// Prefetch fills consume L2 bandwidth and energy like demand accesses.
	counts.Add(energy.EvL2Access, m.hier.Prefetches)
	counts.Add(energy.EvMemAccess, m.hier.L2.Stats.Misses)

	r := &Result{
		Model:     m.model.ID,
		App:       prof.Name,
		Suite:     prof.Suite,
		Insts:     m.insts,
		Cycles:    m.clock - m.clockStart,
		HotInsts:  m.hotInsts,
		ColdInsts: m.coldInsts,
		CoreAreaK: m.model.CoreAreaK,
		L2MB:      m.hier.L2SizeMB(),

		BranchStats: m.bp.Stats,

		TraceAborts:  m.traceAborts,
		TraceBuilds:  m.buildCount,
		HotSegments:  m.hotSegments,
		ColdSegments: m.coldSegments,

		Optimizations: m.optCount,
		OptUopsBefore: m.uopsBefore,
		OptUopsAfter:  m.uopsAfter,
		OptCritBefore: m.critBefore,
		OptCritAfter:  m.critAfter,
		DynUopsOrig:   m.dynUopsOrig,
		DynUopsOpt:    m.dynUopsOpt,
		DynCritOrig:   m.dynCritOrig,
		DynCritOpt:    m.dynCritOpt,
		OptTracesSeen: uint64(len(m.optSeen)),
		OptExecs:      m.optExecs,

		UopsCommitted:  uopsCommitted,
		UopsDispatched: uopsDispatched,
	}
	if m.tp != nil {
		r.TPredStats = m.tp.Stats
	}
	if m.tc != nil {
		r.TCStats = m.tc.Stats
	}

	// Energy: price the two vectors with their models, merge for reporting.
	r.DynEnergy = m.emodel.Energy(&counts) + m.ehot.Energy(&countsHot)
	bc := m.emodel.Breakdown(&counts)
	bh := m.ehot.Breakdown(&countsHot)
	for i := range bc {
		r.Breakdown[i] = bc[i] + bh[i]
	}
	r.Counts = counts
	r.Counts.AddCounts(&countsHot)
	return r
}
