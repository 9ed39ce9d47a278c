package opt

import (
	"parrot/internal/isa"
	"parrot/internal/trace"
)

// Config selects which optimization classes run, mirroring the paper's
// split between general-purpose optimizations (logic simplification,
// constant propagation, dead code elimination) and core-specific ones
// (micro-operation fusion, SIMDification, critical-path scheduling). The
// ablation benchmarks exercise the classes separately.
type Config struct {
	General  bool // copy/constant propagation, algebraic simplify, DCE
	Fusion   bool // cmp+branch and dependent ALU-pair fusion
	Simd     bool // SIMDification of independent pairs
	Schedule bool // critical-path list scheduling
}

// AllOptimizations enables every pass (the paper's full optimizer).
func AllOptimizations() Config {
	return Config{General: true, Fusion: true, Simd: true, Schedule: true}
}

// GeneralOnly enables only the core-independent passes.
func GeneralOnly() Config { return Config{General: true} }

// Result summarizes the optimization of one trace.
type Result struct {
	UopsBefore int
	UopsAfter  int
	CritBefore int
	CritAfter  int
	Stats      PassStats
}

// UopReduction returns the fractional reduction in uop count.
func (r Result) UopReduction() float64 {
	if r.UopsBefore == 0 {
		return 0
	}
	return 1 - float64(r.UopsAfter)/float64(r.UopsBefore)
}

// CritReduction returns the fractional reduction in dependency critical
// path.
func (r Result) CritReduction() float64 {
	if r.CritBefore == 0 {
		return 0
	}
	return 1 - float64(r.CritAfter)/float64(r.CritBefore)
}

// Optimizer is the dynamic trace optimizer: a non-pipelined unit that
// rewrites one blazing trace at a time (§3.1 models it with an occupancy of
// roughly 100 cycles per trace).
type Optimizer struct {
	cfg Config

	// Runs counts optimizer invocations; Totals accumulates pass work.
	Runs   uint64
	Totals PassStats

	// probe, when non-nil, observes every optimization pass with the uop
	// delta it produced (implemented by obs.Recorder; the interface lives
	// here so the optimizer does not depend on the observability layer).
	// One nil-check branch per pass; probes observe only.
	probe PassProbe
}

// PassProbe receives per-pass uop deltas when observability is enabled.
type PassProbe interface {
	Pass(name string, uopsBefore, uopsAfter int)
}

// SetProbe attaches (or, with nil, detaches) a pass probe.
func (o *Optimizer) SetProbe(p PassProbe) { o.probe = p }

// LatencyCycles is the modelled occupancy of the optimizer for a single
// trace (§3.1: "a significant delay (on the order of 100 cycles)").
const LatencyCycles = 100

// New builds an optimizer with the given pass configuration.
func New(cfg Config) *Optimizer { return &Optimizer{cfg: cfg} }

// Config returns the pass configuration.
func (o *Optimizer) Config() Config { return o.cfg }

// Reset clears the accumulated invocation statistics, returning the
// optimizer to its just-constructed state (machine-pooling Reset protocol).
func (o *Optimizer) Reset() {
	o.Runs = 0
	o.Totals = PassStats{}
	o.probe = nil // observers are per-run
}

// pass runs one optimization pass, reporting its uop delta to the probe.
func (o *Optimizer) pass(name string, uops []isa.Uop, st *PassStats,
	f func([]isa.Uop, *PassStats) []isa.Uop) []isa.Uop {
	before := len(uops)
	uops = f(uops, st)
	if o.probe != nil {
		o.probe.Pass(name, before, len(uops))
	}
	return uops
}

// OptimizeUops rewrites a raw uop sequence and reports statistics. The
// input slice is consumed (mutated and possibly aliased by the result).
func (o *Optimizer) OptimizeUops(uops []isa.Uop) ([]isa.Uop, Result) {
	res := Result{UopsBefore: len(uops), CritBefore: CriticalPath(uops)}
	st := &res.Stats

	uops = o.pass("promoteAsserts", uops, st, promoteAsserts)
	if o.cfg.General {
		for round := 0; round < 2; round++ {
			uops = o.pass("algebraic", uops, st, algebraic)
			uops = o.pass("copyProp", uops, st, copyProp)
			uops = o.pass("constProp", uops, st, constProp)
			uops = o.pass("dce", uops, st, dce)
		}
	}
	if o.cfg.Fusion {
		uops = o.pass("fuseCmpBr", uops, st, fuseCmpBr)
		uops = o.pass("fusePairs", uops, st, fusePairs)
	}
	if o.cfg.Simd {
		uops = o.pass("simdify", uops, st, simdify)
	}
	if o.cfg.General {
		uops = o.pass("dce", uops, st, dce)
	}
	if o.cfg.Schedule {
		uops = o.pass("schedule", uops, st, schedule)
	}

	// The passes rewrite opcodes and operands in place; decode the final
	// uops once, as every writer of a trace does.
	isa.Decode(uops)
	res.UopsAfter = len(uops)
	res.CritAfter = CriticalPath(uops)
	o.Runs++
	o.Totals.Add(res.Stats)
	return uops, res
}

// Optimize rewrites a trace in place, preserving the memory-uop contract
// (count and order of memory uops are unchanged).
func (o *Optimizer) Optimize(tr *trace.Trace) Result {
	tr.OrigUops = len(tr.Uops)
	tr.OrigCritPath = CriticalPath(tr.Uops)
	uops, res := o.OptimizeUops(tr.Uops)
	tr.Uops = uops
	tr.Optimized = true
	tr.OptCritPath = res.CritAfter
	// Recount branch-class uops: asserts may have folded away.
	tr.Branches = 0
	for i := range uops {
		if uops[i].Op.Class() == isa.ClassBranch {
			tr.Branches++
		}
	}
	return res
}
