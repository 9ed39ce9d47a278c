// Optimizer: watch the dynamic trace optimizer work. This example pulls
// real traces out of an application's committed instruction stream,
// optimizes them with the full pass pipeline and shows the rewrite — uop by
// uop for the first trace, and aggregate statistics for a larger sample.
//
//	go run ./examples/optimizer
package main

import (
	"fmt"

	"parrot"
)

func main() {
	app, err := parrot.AppByName("wupwise") // dense FP loops, heavy fusion
	if err != nil {
		panic(err)
	}

	traces := parrot.SampleTraces(app, 40_000, 400)
	fmt.Printf("selected %d traces from %s's committed stream\n\n", len(traces), app.Name)

	// Show the first reasonably-sized hot trace in full.
	var demo *parrot.Trace
	for _, tr := range traces {
		if len(tr.Uops) >= 12 && len(tr.Uops) <= 40 && tr.Branches > 0 {
			demo = tr
			break
		}
	}
	if demo != nil {
		fmt.Printf("trace %v (%d instructions, %d uops):\n", demo.TID, demo.NumInsts, len(demo.Uops))
		for i, u := range demo.Uops {
			fmt.Printf("  %2d: %s\n", i, u)
		}
		o := parrot.NewOptimizer(parrot.AllOptimizations())
		r := o.Optimize(demo)
		fmt.Printf("\nafter optimization (%d uops, %.0f%% reduction; critical path %d -> %d):\n",
			r.UopsAfter, r.UopReduction()*100, r.CritBefore, r.CritAfter)
		for i, u := range demo.Uops {
			fmt.Printf("  %2d: %s\n", i, u)
		}
		fmt.Printf("\npass work: %+v\n\n", r.Stats)
	}

	// Aggregate over the full sample, split by optimization class — the
	// ablation the paper's companion study performs.
	for _, cfg := range []struct {
		name string
		c    parrot.OptimizeConfig
	}{
		{"general only (copy/const/DCE)", parrot.GeneralOnly()},
		{"full (incl. fusion, SIMD, scheduling)", parrot.AllOptimizations()},
	} {
		o := parrot.NewOptimizer(cfg.c)
		var sum parrot.OptimizeResult
		for _, tr := range parrot.SampleTraces(app, 40_000, 400) {
			r := o.Optimize(tr)
			sum.UopsBefore += r.UopsBefore
			sum.UopsAfter += r.UopsAfter
			sum.CritBefore += r.CritBefore
			sum.CritAfter += r.CritAfter
		}
		fmt.Printf("%-40s uops %5d -> %5d (%.1f%%)   critical path -%.1f%%\n",
			cfg.name, sum.UopsBefore, sum.UopsAfter,
			100*sum.UopReduction(), 100*sum.CritReduction())
	}
}
