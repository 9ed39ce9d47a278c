package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"parrot/internal/experiments"
)

// loadSimBench reads a committed BENCH_simkernel.json.
func loadSimBench(path string) (*simBenchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var base simBenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &base, nil
}

// runBaselineCheck is the CI perf-regression gate: it re-measures the
// exact engine's steady full-matrix pass on one core (steadyPasses) and
// compares its sim-MIPS against the steady pass of the committed
// BENCH_simkernel.json. A regression beyond tolerance (e.g. 0.10 = 10%)
// fails with a non-zero exit so kernel slowdowns are caught in review
// rather than discovered after merging; on success the measured-vs-baseline
// delta is still printed so drift stays visible in CI logs long before it
// trips the gate.
//
//	go run ./cmd/parrotbench -checkbaseline BENCH_simkernel.json -n 50000
//	go run ./cmd/parrotbench -checkbaseline BENCH_simkernel.json -tolerance 0.05
func runBaselineCheck(path string, n int, tolerance float64, out io.Writer) error {
	base, err := loadSimBench(path)
	if err != nil {
		return err
	}
	var ref *matrixPass
	for i := range base.MatrixPasses {
		if base.MatrixPasses[i].Pass == "steady" {
			ref = &base.MatrixPasses[i]
		}
	}
	if ref == nil {
		return fmt.Errorf("baseline %s: no steady matrix pass recorded", path)
	}
	if n <= 0 {
		n = base.InstsPerApp
	}
	if n != base.InstsPerApp {
		fmt.Fprintf(out, "note: measuring at %d insts/app, baseline recorded at %d\n",
			n, base.InstsPerApp)
	}

	_, steady, _ := steadyPasses(n)
	ratio := steady.SimMIPS / ref.SimMIPS
	fmt.Fprintf(out, "steady exact matrix pass, 1 proc: %.3f sim-MIPS (baseline %.3f, ratio %.3f, floor %.3f)\n",
		steady.SimMIPS, ref.SimMIPS, ratio, 1-tolerance)
	if ratio < 1-tolerance {
		return fmt.Errorf("sim-MIPS regression: %.3f is %.1f%% below baseline %.3f (max allowed %.0f%%)",
			steady.SimMIPS, (1-ratio)*100, ref.SimMIPS, tolerance*100)
	}
	fmt.Fprintf(out, "perf gate: OK (%+.1f%% vs baseline, tolerance %.0f%%)\n",
		(ratio-1)*100, tolerance*100)
	return nil
}

// runWorkCheck is the exact leg of the perf gate: it runs one 44x7 matrix
// pass at the recorded budget and compares the kernel work counters, and
// the allocations of generating the programs, against the work block of
// the committed BENCH_simkernel.json. The counts depend on the code alone,
// not on the host or its load, so any rise in ticks run (a lost
// fast-forward, say) or in generation allocations (a generator that
// allocates per instruction again) fails with no tolerance. A fall passes
// and is reported, so the file can be re-recorded.
//
//	go run ./cmd/parrotbench -checkwork BENCH_simkernel.json
func runWorkCheck(path string, out io.Writer) error {
	base, err := loadSimBench(path)
	if err != nil {
		return err
	}
	if base.Work == nil {
		return fmt.Errorf("baseline %s: no work block recorded", path)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := experiments.Run(experiments.Config{Insts: base.InstsPerApp, Parallelism: 1})
	got, want := workBlock{Work: res.Work(), GenerateAllocs: generateAllocs()}, *base.Work
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"ticks run", got.Ticks, want.Ticks},
		{"cycles skipped", got.Skipped, want.Skipped},
		{"engine dispatches", got.Dispatches, want.Dispatches},
		{"generate allocs", got.GenerateAllocs, want.GenerateAllocs},
	} {
		fmt.Fprintf(out, "%-18s %12d (recorded %12d, %+.2f%%)\n", c.name, c.got, c.want,
			(float64(c.got)/float64(c.want)-1)*100)
	}
	if got.Ticks > want.Ticks {
		return fmt.Errorf("kernel work regression: %d ticks run, recorded %d", got.Ticks, want.Ticks)
	}
	if got.GenerateAllocs > want.GenerateAllocs {
		return fmt.Errorf("generation regression: %d allocations, recorded %d", got.GenerateAllocs, want.GenerateAllocs)
	}
	fmt.Fprintln(out, "work gate: OK")
	return nil
}
