// Command parrotbench regenerates the paper's evaluation: every figure of
// §4 and the configuration tables of §3.3. Each figure prints the same
// rows/series the paper reports — per-suite geometric means, the overall
// mean and the three killer applications.
//
// Usage:
//
//	parrotbench                  # all tables and figures
//	parrotbench -fig 4.5         # one figure
//	parrotbench -table 3.2       # one table
//	parrotbench -n 200000        # instructions per application
//	parrotbench -models N,TON    # restrict the model set
//	parrotbench -json            # machine-readable result matrix
//	parrotbench -ablation        # optimizer pass-class ablation (§2.4)
//	parrotbench -sensitivity     # blazing-threshold / trace-cache sweeps
//	parrotbench -splitstudy      # split-core future-work study (§5)
//	parrotbench -quick           # restrict studies to 1 app per suite
//	parrotbench -simbench        # simulation-kernel throughput report (JSON)
//	parrotbench -simbench -procs 2                    # add a GOMAXPROCS=2 matrix pass
//	parrotbench -enginebench     # engine per-cycle micro-benchmark report (JSON)
//	parrotbench -checkbaseline BENCH_simkernel.json   # CI perf-regression gate
//	parrotbench -checkbaseline BENCH_simkernel.json -tolerance 0.05
//	parrotbench -checkwork BENCH_simkernel.json       # exact kernel work counters
//	parrotbench -progress        # live done/total + ETA on stderr
//	parrotbench -remote URL      # serve the matrix from a parrotd instance
//	parrotbench -cpuprofile f    # write a CPU profile (any mode)
//	parrotbench -memprofile f    # write a heap profile on exit (any mode)
//
// With -remote the model × application matrix is served by parrotd —
// cached cells return in microseconds, so a warm daemon regenerates every
// figure near-instantly. The reassembled matrix is bit-identical to an
// in-process run (same canonical digest); when the server is unreachable
// the command warns and falls back to local simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parrot"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/profiling"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
	"parrot/internal/workload"
)

// remoteMatrix runs the experiment matrix through a parrotd instance and
// reassembles an experiments.Results bit-identical to parrot.Experiments.
// A reachability failure returns (nil, nil): the caller falls back to the
// in-process matrix with a warning.
func remoteMatrix(server string, cfg parrot.ExperimentConfig) (*parrot.ExperimentResults, error) {
	c := client.New(server)
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "parrotbench: warning: %s unreachable (%v); falling back to local simulation\n", server, err)
		return nil, nil
	}

	req := proto.MatrixRequest{Insts: cfg.Insts}
	for _, m := range cfg.Models {
		req.Models = append(req.Models, string(m.ID))
	}
	var onProgress func(proto.Progress)
	if cfg.Progress != nil {
		onProgress = func(p proto.Progress) {
			cfg.Progress(p.Done, p.Total,
				time.Duration(p.ElapsedUs)*time.Microsecond,
				time.Duration(p.EtaUs)*time.Microsecond)
		}
	}
	resp, err := c.Matrix(ctx, req, onProgress)
	if err != nil {
		return nil, err
	}
	if resp.FailedCells > 0 {
		return nil, fmt.Errorf("parrotbench: matrix partial: %d of %d cells failed (overloaded server?)", resp.FailedCells, resp.TotalCells)
	}
	fmt.Fprintf(os.Stderr, "parrotbench: matrix served by %s (%d/%d cells cached, %v)\n",
		server, resp.CachedCells, resp.TotalCells,
		(time.Duration(resp.ElapsedUs) * time.Microsecond).Round(time.Millisecond))

	cells := make(map[string]*core.Result, len(resp.Cells))
	for _, cell := range resp.Cells {
		cells[cell.Model+"\x00"+cell.App] = cell.Result
	}
	models := cfg.Models
	if models == nil {
		models = config.All()
	}
	res := experiments.Assemble(models, cfg.Apps, cfg.Insts,
		func(m config.Model, p workload.Profile) *core.Result {
			return cells[string(m.ID)+"\x00"+p.Name]
		})
	if got := res.Digest(); got != resp.Digest {
		return nil, fmt.Errorf("parrotbench: reassembled matrix digest %s differs from server digest %s", got, resp.Digest)
	}
	return res, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.String("fig", "", "figure to regenerate (4.1 ... 4.11); empty = all")
	table := flag.String("table", "", "table to regenerate (3.1 or 3.2)")
	n := flag.Int("n", 100_000, "dynamic instructions per application")
	models := flag.String("models", "", "comma-separated model subset (default: all)")
	verbose := flag.Bool("v", false, "print per-application results")
	ablation := flag.Bool("ablation", false, "run the optimizer pass-class ablation instead of the figures")
	sensitivity := flag.Bool("sensitivity", false, "run the blazing-threshold and trace-cache-size sensitivity sweeps")
	splitstudy := flag.Bool("splitstudy", false, "run the split-core future-work study (§5)")
	quick := flag.Bool("quick", false, "restrict studies to one application per suite")
	jsonOut := flag.Bool("json", false, "emit the full result matrix as JSON instead of figures")
	simbench := flag.Bool("simbench", false, "measure simulation-kernel throughput and emit a JSON report")
	procs := flag.Int("procs", 0, "with -simbench: add a matrix pass at GOMAXPROCS=N for multi-core scaling (0 = skip)")
	enginebench := flag.Bool("enginebench", false, "measure engine micro-workloads and emit a JSON report")
	checkBaseline := flag.String("checkbaseline", "", "perf gate: compare a fresh 1-proc steady matrix pass against this BENCH_simkernel.json")
	checkWork := flag.String("checkwork", "", "exact gate: fail when a 1-proc matrix pass runs more ticks than this BENCH_simkernel.json's work block")
	tolerance := flag.Float64("tolerance", 0.10, "max fractional sim-MIPS regression tolerated by -checkbaseline")
	progress := flag.Bool("progress", false, "report matrix progress and ETA on stderr")
	remote := flag.String("remote", "", "serve the matrix from a parrotd instance at this base URL (falls back to local when unreachable)")
	prof := profiling.Define()
	flag.Parse()

	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *simbench {
		return runSimBench(*n, *procs, os.Stdout)
	}

	if *checkBaseline != "" {
		return runBaselineCheck(*checkBaseline, *n, *tolerance, os.Stdout)
	}

	if *checkWork != "" {
		return runWorkCheck(*checkWork, os.Stdout)
	}

	if *enginebench {
		return runEngineBench(os.Stdout)
	}

	if *table != "" {
		switch *table {
		case "3.1":
			fmt.Println(experiments.Table31())
		case "3.2":
			fmt.Println(experiments.Table32())
		default:
			return fmt.Errorf("unknown table %q (3.1 or 3.2)", *table)
		}
		return nil
	}

	var studyApps []workload.Profile
	if *quick {
		for _, name := range []string{"gcc", "swim", "word", "flash", "dotnet-num1"} {
			p, _ := workload.ByName(name)
			studyApps = append(studyApps, p)
		}
	}
	if *ablation {
		fmt.Println(experiments.Ablation(studyApps, *n))
		return nil
	}
	if *sensitivity {
		fmt.Println(experiments.BlazingSensitivity(studyApps, *n, nil))
		fmt.Println(experiments.TCSizeSensitivity(studyApps, *n, nil))
		return nil
	}
	if *splitstudy {
		fmt.Println(experiments.SplitCoreStudy(studyApps, *n))
		return nil
	}

	cfg := parrot.ExperimentConfig{Insts: *n}
	if *progress {
		cfg.Progress = func(done, total int, elapsed, eta time.Duration) {
			fmt.Fprintf(os.Stderr, "\r%d/%d cells  elapsed %v  eta %v   ",
				done, total, elapsed.Round(time.Second), eta.Round(time.Second))
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	if *models != "" {
		var ms []config.Model
		for _, id := range strings.Split(*models, ",") {
			m, err := parrot.GetModel(parrot.ModelID(strings.TrimSpace(id)))
			if err != nil {
				return err
			}
			ms = append(ms, m)
		}
		cfg.Models = ms
	}

	start := time.Now()
	var res *parrot.ExperimentResults
	if *remote != "" {
		var err error
		res, err = remoteMatrix(*remote, cfg)
		if err != nil {
			return err
		}
	}
	if res == nil { // no -remote, or graceful fallback
		res = parrot.Experiments(cfg)
	}
	if *jsonOut {
		return res.WriteJSON(os.Stdout)
	}
	fmt.Printf("simulated %d applications × %d models in %v  (P_MAX anchor: %s)\n\n",
		len(res.Apps()), len(res.Models()), time.Since(start).Round(time.Millisecond), res.PMaxApp)

	if *verbose {
		for _, id := range res.Models() {
			for _, p := range res.Apps() {
				r := res.Get(id, p.Name)
				fmt.Printf("  %-4s %-14s IPC=%.3f energy=%.4g coverage=%.2f\n",
					id, p.Name, r.IPC(), r.TotalEnergy(res.PMax), r.Coverage())
			}
		}
		fmt.Println()
	}

	if *fig == "" {
		fmt.Println(experiments.Table31())
		fmt.Println(experiments.Table32())
		for _, f := range res.AllFigures() {
			fmt.Println(f.Table)
		}
		return nil
	}
	for _, f := range res.AllFigures() {
		if strings.HasSuffix(f.ID, *fig) {
			fmt.Println(f.Table)
			return nil
		}
	}
	return fmt.Errorf("unknown figure %q", *fig)
}
