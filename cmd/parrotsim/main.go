// Command parrotsim simulates one (model, application) pair and prints a
// full report: performance, energy, trace-subsystem behaviour and the
// component energy breakdown.
//
// Usage:
//
//	parrotsim -model TON -app swim -n 200000
//	parrotsim -model TON -app swim -json
//	parrotsim -model TON -tracefile swim.ptrace
//	parrotsim -list
//	parrotsim -model TON -app swim -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"parrot"
	"parrot/internal/energy"
	"parrot/internal/experiments"
	"parrot/internal/profiling"
)

// runTraceFile replays a captured trace on the named model, with the
// standard warmup fraction applied to the file's record count.
func runTraceFile(modelID, path string) (*parrot.Result, error) {
	m, err := parrot.GetModel(parrot.ModelID(modelID))
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parrot.RunTraceFile(m, f)
}

func main() {
	model := flag.String("model", "TON", "machine model: N, TN, TON, W, TW, TOW, TOS")
	app := flag.String("app", "swim", "benchmark application name")
	n := flag.Int("n", 0, "dynamic instructions (0 = profile default)")
	traceFile := flag.String("tracefile", "", "replay a captured trace file instead of synthesizing -app")
	list := flag.Bool("list", false, "list models and applications, then exit")
	jsonOut := flag.Bool("json", false, "emit the run result as machine-readable JSON")
	prof := profiling.Define()
	flag.Parse()

	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *list {
		fmt.Println("models:")
		for _, m := range parrot.Models() {
			fmt.Printf("  %-4s %s\n", m.ID, m.Description)
		}
		fmt.Println("\napplications:")
		for _, p := range parrot.Apps() {
			fmt.Printf("  %-14s %s\n", p.Name, p.Suite)
		}
		return
	}

	var r *parrot.Result
	var err error
	if *traceFile != "" {
		r, err = runTraceFile(*model, *traceFile)
	} else {
		r, err = parrot.RunByName(*model, *app, *n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonOut {
		// A single run has no matrix-wide P_MAX; the run's own average
		// dynamic power anchors the leakage term.
		s := experiments.Summarize(r, r.AvgDynPower())
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("model %s on %s (%s)\n\n", r.Model, r.App, r.Suite)
	fmt.Printf("  instructions   %12d\n", r.Insts)
	fmt.Printf("  cycles         %12d\n", r.Cycles)
	fmt.Printf("  IPC            %12.3f\n", r.IPC())
	fmt.Printf("  uops committed %12d\n", r.UopsCommitted)
	fmt.Printf("  dynamic energy %12.4g\n", r.DynEnergy)
	fmt.Printf("  avg dyn power  %12.3f\n", r.AvgDynPower())
	fmt.Println()
	fmt.Printf("  branch mispredict rate %7.3f\n", r.BranchStats.MispredictRate())
	if r.HotInsts+r.ColdInsts > 0 && r.HotInsts > 0 {
		fmt.Printf("  trace coverage         %7.3f\n", r.Coverage())
		fmt.Printf("  trace mispredict rate  %7.3f\n", r.TPredStats.MispredictRate())
		fmt.Printf("  hot segments           %7d\n", r.HotSegments)
		fmt.Printf("  trace builds           %7d\n", r.TraceBuilds)
		fmt.Printf("  trace aborts           %7d\n", r.TraceAborts)
		fmt.Printf("  optimizations          %7d\n", r.Optimizations)
		if r.DynUopsOrig > 0 {
			fmt.Printf("  uop reduction          %7.3f\n", r.UopReduction())
			fmt.Printf("  dependency reduction   %7.3f\n", r.CritReduction())
			fmt.Printf("  opt-trace utilization  %7.1f\n", r.OptimizedTraceUtilization())
		}
	}
	fmt.Println("\n  energy breakdown (dynamic):")
	for c := energy.Component(0); c < energy.NumComponents; c++ {
		if r.Breakdown[c] == 0 {
			continue
		}
		fmt.Printf("    %-12s %6.1f%%\n", c, 100*r.Breakdown[c]/r.DynEnergy)
	}
}
