// Command parrotscope is the simulator's observability front-end: it runs
// one (model, application) pair with the full probe suite attached and
// writes the analysis artifacts the probes produce:
//
//	summary.json        machine-readable run summary (same schema as parrotsim -json)
//	timeseries.json     phase-sampled interval time series + occupancy histograms
//	timeseries.csv      the same intervals, one row each, for spreadsheets
//	pipeline.kanata     per-uop pipeline lifecycle (Konata / Kanata 0004 viewer)
//	pipeline.trace.json per-uop pipeline lifecycle (chrome://tracing, Perfetto)
//	traces.json         per-trace biographies: promotions, optimizer savings,
//	                    aborts, executions, trace-cache residency
//
// Usage:
//
//	parrotscope -model TON -app swim -n 200000 -out scope-out
//	parrotscope -model TOS -app flash -interval 500 -uops 20000 -maxtraces 100
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"parrot"
	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/experiments"
	"parrot/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	model := flag.String("model", "TON", "machine model: N, TN, TON, W, TW, TOW, TOS")
	app := flag.String("app", "swim", "benchmark application name")
	n := flag.Int("n", 0, "dynamic instructions (0 = profile default)")
	out := flag.String("out", "scope-out", "output directory for artifacts")
	interval := flag.Int("interval", 0, "time-series interval in committed instructions (0 = default 1000)")
	uops := flag.Int("uops", 0, "max per-uop lifecycle records per lane (0 = default 50000)")
	busCap := flag.Int("events", 0, "max probe-bus events (0 = default 1<<20)")
	maxTraces := flag.Int("maxtraces", 200, "max trace biographies exported (0 = all)")
	flag.Parse()

	m, err := parrot.GetModel(parrot.ModelID(*model))
	if err != nil {
		return err
	}
	prof, err := parrot.AppByName(*app)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	// One caller-managed machine with a fresh recorder attached, run under
	// the standard warmup protocol. The recorder observes the whole run;
	// warmup intervals are flagged in the series.
	machine := core.New(config.Model(m))
	rec := obs.NewRecorder(obs.Options{
		IntervalInsts: *interval,
		MaxPipeUops:   *uops,
		MaxBusEvents:  *busCap,
	})
	machine.Attach(rec)
	res := core.RunWarmOn(machine, prof, *n)

	write := func(name string, f func(*os.File) error) error {
		path := filepath.Join(*out, name)
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := f(file); err != nil {
			file.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		return file.Close()
	}

	steps := []struct {
		name string
		f    func(*os.File) error
	}{
		{"summary.json", func(f *os.File) error {
			s := experiments.Summarize(res, res.AvgDynPower())
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(s)
		}},
		{"timeseries.json", func(f *os.File) error { return rec.WriteSeriesJSON(f) }},
		{"timeseries.csv", func(f *os.File) error { return rec.WriteSeriesCSV(f) }},
		{"pipeline.kanata", func(f *os.File) error { return rec.WriteKanata(f) }},
		{"pipeline.trace.json", func(f *os.File) error { return rec.WriteChromeTrace(f) }},
		{"traces.json", func(f *os.File) error { return rec.WriteBiographies(f, *maxTraces) }},
	}
	for _, s := range steps {
		if err := write(s.name, s.f); err != nil {
			return err
		}
	}

	fmt.Printf("model %s on %s: %d insts, %d cycles, IPC %.3f, coverage %.3f\n",
		res.Model, res.App, res.Insts, res.Cycles, res.IPC(), res.Coverage())
	fmt.Printf("probes: %d bus events (%d dropped), %d+%d uop lifecycles (overflow %d+%d), %d traces, %d intervals\n",
		rec.Bus.Len(), rec.Bus.Dropped,
		rec.Lanes[0].Len(), rec.Lanes[1].Len(),
		rec.Lanes[0].Overflow, rec.Lanes[1].Overflow,
		rec.BioCount(), len(rec.Series.Intervals))
	fmt.Printf("artifacts written to %s: summary.json timeseries.{json,csv} pipeline.{kanata,trace.json} traces.json\n", *out)
	return nil
}
