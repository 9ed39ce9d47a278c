package main

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"parrot/internal/isa"
	"parrot/internal/ooo"
)

// engineBenchReport is the schema of BENCH_engine.json: per-clock cost of the
// execution engine on the micro-workloads that isolate its hot paths, next to
// the numbers measured on the pre-rewrite polling kernel. Regenerate with:
//
//	go run ./cmd/parrotbench -enginebench > BENCH_engine.json
type engineBenchReport struct {
	Benchmark  string `json:"benchmark"`
	Date       string `json:"date"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Baseline describes where the baseline_ns_per_cycle numbers come from.
	Baseline string `json:"baseline"`

	// Scenarios are the BenchmarkEngineCycle workloads (internal/ooo).
	Scenarios []engineScenario `json:"scenarios"`

	// IdleScaling pins the event-driven property: ns/cycle across a growing
	// stalled window must stay flat, where the polling kernel grew linearly.
	IdleScaling []idleScalingPoint `json:"idle_scaling"`

	Notes string `json:"notes,omitempty"`
}

type engineScenario struct {
	Name               string  `json:"name"`
	CyclesPerRun       uint64  `json:"cycles_per_run"`
	NsPerCycle         float64 `json:"ns_per_cycle"`
	BaselineNsPerCycle float64 `json:"baseline_ns_per_cycle"`
	Speedup            float64 `json:"speedup"`
}

type idleScalingPoint struct {
	InFlight           int     `json:"inflight"`
	NsPerCycle         float64 `json:"ns_per_cycle"`
	BaselineNsPerCycle float64 `json:"baseline_ns_per_cycle"`
	Speedup            float64 `json:"speedup"`
}

// prePollingBaseline holds ns/cycle measured on the pre-rewrite kernel
// (linear pending-list writeback, full IQ re-poll per cycle, per-load store
// ring walk) on the same machine, same workloads, via
// `go test -bench BenchmarkEngine ./internal/ooo` at the PR 1 tree.
var prePollingBaseline = map[string]float64{
	"dense-chain":      161.1,
	"wide-independent": 114.0,
	"loadstore-heavy":  178.8,
	"idle-in-flight":   144.2,
	"inflight-8":       29.59,
	"inflight-32":      96.72,
	"inflight-128":     166.0,
}

// engineALU builds a 3-operand integer add uop.
func engineALU(d, s1, s2 int) isa.Uop {
	u := isa.NewUop(isa.OpAdd)
	u.Dst[0] = isa.GPR(d)
	u.Src[0] = isa.GPR(s1)
	u.Src[1] = isa.GPR(s2)
	return u
}

// engineDiv builds an integer divide uop (non-pipelined unit).
func engineDiv(d int) isa.Uop {
	u := isa.NewUop(isa.OpDiv)
	u.Dst[0] = isa.GPR(d % 8)
	u.Src[0] = isa.GPR(8)
	u.Src[1] = isa.GPR(9)
	return u
}

// engineProg mirrors the BenchmarkEngineCycle workload generators in
// internal/ooo/bench_test.go so the standalone tool and the go-test
// benchmarks measure identical programs.
func engineProg(name string) (prog []isa.Uop, addrs []uint64, mem func(uint64, bool) int) {
	switch name {
	case "dense-chain":
		for i := 0; i < 2000; i++ {
			prog = append(prog, engineALU(1, 1, 2))
		}
	case "wide-independent":
		for i := 0; i < 2000; i++ {
			prog = append(prog, engineALU(i%8, 8+i%4, 12+i%4))
		}
	case "loadstore-heavy":
		for i := 0; i < 2000; i++ {
			switch i % 4 {
			case 0:
				st := isa.NewUop(isa.OpStore)
				st.Src[0] = isa.GPR(2)
				st.Src[1] = isa.GPR(i % 8)
				prog = append(prog, st)
				addrs = append(addrs, uint64(0x1000+(i%16)*64))
			case 1, 2:
				ld := isa.NewUop(isa.OpLoad)
				ld.Dst[0] = isa.GPR(i % 8)
				ld.Src[0] = isa.GPR(2)
				prog = append(prog, ld)
				addrs = append(addrs, uint64(0x1000+((i+3)%16)*64))
			default:
				prog = append(prog, engineALU(i%8, 8+i%4, 12+i%4))
				addrs = append(addrs, 0)
			}
		}
		mem = func(addr uint64, write bool) int { return int(addr>>6) % 5 }
	case "idle-in-flight":
		for i := 0; i < 64; i++ {
			prog = append(prog, engineDiv(i))
		}
	}
	return prog, addrs, mem
}

// engineRun drives prog through the engine to drain (same protocol as the
// go-test benchmarks: dispatch honoring width and back-pressure, one Cycle
// per dispatch group, then Drain).
func engineRun(e *ooo.Engine, prog []isa.Uop, addrs []uint64) {
	i := 0
	for i < len(prog) {
		dispatched := 0
		for dispatched < e.Config().Width && i < len(prog) && e.CanDispatch() {
			var addr uint64
			if prog[i].Op.IsMem() && addrs != nil {
				addr = addrs[i]
			}
			e.Dispatch(&prog[i], addr, true, false)
			i++
			dispatched++
		}
		e.Cycle()
	}
	e.Drain()
}

// engineMeasure times repeated pooled runs of one program and returns
// ns/cycle plus the deterministic per-run cycle count.
func engineMeasure(prog []isa.Uop, addrs []uint64, mem func(uint64, bool) int) (nsPerCycle float64, cyclesPerRun uint64) {
	isa.Decode(prog)
	e := ooo.New(ooo.Narrow(), mem)
	engineRun(e, prog, addrs) // warm the slabs
	cyclesPerRun = e.Stats.Cycles

	const minIters, minWall = 200, 300 * time.Millisecond
	var cycles uint64
	iters := 0
	start := time.Now()
	for iters < minIters || time.Since(start) < minWall {
		e.Reset()
		engineRun(e, prog, addrs)
		cycles += e.Stats.Cycles
		iters++
	}
	wall := time.Since(start)
	return float64(wall.Nanoseconds()) / float64(cycles), cyclesPerRun
}

// runEngineBench measures the engine micro-workloads and writes the JSON
// report compared against the recorded polling-kernel baselines.
func runEngineBench(out io.Writer) error {
	rep := engineBenchReport{
		Benchmark:  "engine",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Baseline: "pre-rewrite polling kernel (PR 1 tree): linear pending-list writeback, " +
			"per-cycle IQ source re-poll, per-load store-ring walk; measured with " +
			"`go test -bench BenchmarkEngine ./internal/ooo` on the same machine",
		Notes: "ns_per_cycle is wall time per simulated clock. idle_scaling must stay " +
			"~flat across inflight counts for an event-driven kernel; the polling " +
			"baseline grew linearly (29.6 -> 166.0).",
	}

	for _, name := range []string{"dense-chain", "wide-independent", "loadstore-heavy", "idle-in-flight"} {
		prog, addrs, mem := engineProg(name)
		ns, cycles := engineMeasure(prog, addrs, mem)
		rep.Scenarios = append(rep.Scenarios, engineScenario{
			Name:               name,
			CyclesPerRun:       cycles,
			NsPerCycle:         ns,
			BaselineNsPerCycle: prePollingBaseline[name],
			Speedup:            prePollingBaseline[name] / ns,
		})
	}

	for _, n := range []int{8, 32, 128} {
		var prog []isa.Uop
		for i := 0; i < n; i++ {
			prog = append(prog, engineDiv(i))
		}
		ns, _ := engineMeasure(prog, nil, nil)
		name := map[int]string{8: "inflight-8", 32: "inflight-32", 128: "inflight-128"}[n]
		rep.IdleScaling = append(rep.IdleScaling, idleScalingPoint{
			InFlight:           n,
			NsPerCycle:         ns,
			BaselineNsPerCycle: prePollingBaseline[name],
			Speedup:            prePollingBaseline[name] / ns,
		})
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}
