package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// childEnv carries a childSpec into a re-executed copy of this binary (or
// of the test binary, whose TestMain dispatches on it). Child processes
// give each timed pass or window a process with empty caches and pools,
// so nothing one pass computed can answer the next, and every one of them
// is a fresh set-up to time.
const childEnv = "PARROTBENCH_CHILD"

const (
	childMatrixPass  = "matrix-pass"
	childServeWindow = "serve-window"
)

type childSpec struct {
	Kind    string
	Opts    options
	Proc    int   // which of the run's processes this is
	StartNs int64 // parent's wall clock just before exec: set-up includes process start
}

type childOut struct {
	SetupS float64
	RSSMiB float64
	Pass   *passOut   `json:",omitempty"`
	Window *windowOut `json:",omitempty"`
}

// spawn runs one child to completion and decodes its report.
func spawn(kind string, o options, proc int) (childOut, error) {
	var out childOut
	exe, err := os.Executable()
	if err != nil {
		return out, err
	}
	spec := childSpec{Kind: kind, Opts: o, Proc: proc, StartNs: time.Now().UnixNano()}
	b, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("%s child: %w", kind, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return out, fmt.Errorf("%s child output: %w", kind, err)
	}
	return out, nil
}

// childMain is the child side of spawn.
func childMain(spec string, stdout io.Writer) int {
	var cs childSpec
	if err := json.Unmarshal([]byte(spec), &cs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	start := time.Unix(0, cs.StartNs)
	var out childOut
	var err error
	switch cs.Kind {
	case childMatrixPass:
		var p passOut
		p, err = matrixPass(cs.Opts, cs.Opts.Seed*1000+int64(cs.Proc), start)
		out.Pass, out.SetupS = &p, p.SetupS
	case childServeWindow:
		var w windowOut
		w, err = serveWindow(cs.Opts, cs.Proc, start)
		out.Window, out.SetupS = &w, w.SetupS
	default:
		err = fmt.Errorf("unknown child kind %q", cs.Kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	out.RSSMiB = maxRSSMiB()
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}
