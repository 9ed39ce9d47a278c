// Command benchmark is the repository benchmark: one rerunnable command that
// times the exact simulation engine over the paper's 44×7 matrix and mixed
// fresh-and-cached traffic on a two-node swarm, and checks every answer it
// times.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload matrix --seed 1 --seconds 40 --trace 0
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, the per-layer ledger with
// --trace 1. The line before it is the full report (host, mode, load shape
// and every metric the workload defines); a copy and the traced-run
// artifacts land in .bench_out/. README.md records why each workload
// exists and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options fix everything a run measures; child processes receive them as
// JSON, so every field is exported.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool

	// Insts is the per-cell instruction budget; Apps restricts the roster
	// (nil = all 44 applications, canonical order).
	Insts int
	Apps  []string

	// Rate is serve-mixed's offered load in requests/s.
	Rate float64

	// RefDigest, when set, replaces the committed reference matrix digest
	// (tests doctor it to prove the output check bites).
	RefDigest string

	OutDir string
}

func defaultOptions() options {
	return options{
		Seed:    1,
		Seconds: 40,
		Insts:   50000,
		Rate:    120,
		OutDir:  ".bench_out",
	}
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line, in the shape BENCHMARK.json defines.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo and loadInfo make every report say where and how it was measured.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

type loadInfo struct {
	Workers      int     `json:"workers"`
	Clients      int     `json:"clients"`
	Connections  int     `json:"connections"`
	Nodes        int     `json:"nodes"`
	Loop         string  `json:"loop"`
	OfferedRate  float64 `json:"offered_rate_per_s,omitempty"`
	MissFrac     float64 `json:"miss_frac,omitempty"`
	InstsPerCell int     `json:"insts_per_cell"`
	Cells        int     `json:"cells"`
}

// Fixed shape of the serve workloads.
const (
	// serveProcs is how many fresh processes a serve run splits its
	// seconds over, each one set up and timed.
	serveProcs = 4
	// missEvery makes every missEvery-th serve-mixed request a cell at a
	// never-requested budget.
	missEvery = 5
	// resimPerProc is how many answered misses each serve-mixed process
	// re-simulates in-process after its window.
	resimPerProc = 12
	// spanSample caps how many request traces a traced serve phase fetches.
	spanSample = 2000
)

// report is the full record of one run: the result plus everything needed
// to interpret it.
type report struct {
	Workload string            `json:"workload"`
	Mode     string            `json:"mode"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Host     hostInfo          `json:"host"`
	Load     loadInfo          `json:"load"`
	Metrics  map[string]metric `json:"metrics"`
	Samples  map[string]int    `json:"samples"`
	Notes    []string          `json:"notes,omitempty"`
	Errors   []string          `json:"errors,omitempty"`
	Result   result            `json:"result"`
}

func host() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// Workload modes, as ROADMAP aim 1 names them.
const (
	modeSimulating = "simulating"
	modeMixed      = "mixed"
)

func modeOf(w string) string {
	if w == "matrix" {
		return modeSimulating
	}
	return modeMixed
}

// workloads are the runs the benchmark times. serve-hit exists only as a
// phase of the traced ledger run: its closed loop of cached requests spread
// by half its median between runs on a shared 2-CPU host, too much for any
// bound, so serve-mixed carries cached serving for the end-to-end metrics.
var workloads = map[string]func(options) (*report, error){
	"matrix":      runMatrix,
	"serve-mixed": runServe,
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	o := defaultOptions()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.Workload, "workload", "", "matrix or serve-mixed")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "input seed: roster order, request order, arrival times, miss cells")
	fs.Float64Var(&o.Seconds, "seconds", o.Seconds, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer ledger")
	fs.StringVar(&o.OutDir, "out", o.OutDir, "directory for the report and traced-run artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.Trace = *traceFlag == 1
	rep, err := runOptions(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := writeJSONFile(filepath.Join(o.OutDir, fmt.Sprintf("%s-seed%d-trace%d.json", o.Workload, o.Seed, *traceFlag)), rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	last, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", line, last)
	return 0
}

// runOptions validates the options and runs one workload, untraced or as
// the traced ledger run.
func runOptions(o options) (*report, error) {
	if _, ok := workloads[o.Workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.Workload, strings.Join(names, ", "))
	}
	if o.Seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	run := workloads[o.Workload]
	if o.Trace {
		run = runLedger
	}
	rep, err := run(o)
	if err != nil {
		return nil, err
	}
	rep.finish()
	return rep, nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// since returns seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
