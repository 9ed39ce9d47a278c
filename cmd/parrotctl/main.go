// Command parrotctl is the CLI client of a parrotd instance.
//
// Usage:
//
//	parrotctl run -model TON -app swim -n 50000 [-json]
//	parrotctl matrix -models N,TON -apps gzip,swim -n 20000 [-progress]
//	parrotctl matrix -expect-digest <hex> -min-cached 0.95   # CI assertions
//	parrotctl get -digest <hex>
//	parrotctl health
//	parrotctl top [-watch 2s] [-raw] [-expect 'series op value']...
//	parrotctl trace -id <requestID> [-table] [-o trace.json]
//	parrotctl cluster [-watch 2s] [-expect 'series op value']...
//
// "top" renders the /metricsz exposition as a dashboard; "top -raw"
// prints every series as `name{labels} value`.
//
// Against a clustered parrotd, "cluster" renders the node's membership
// view: ring layout with ownership shares and per-node health states,
// plus the forward/retry/rescue counters scraped from /metricsz.
// "matrix -verify-owners" rebuilds the ring client-side and asserts every
// cache-hit cell was served by its ring owner — the cross-node
// cache-ownership proof the cluster smoke test gates on.
//
// Every subcommand accepts -server (default http://127.0.0.1:8044, or
// $PARROTD when set). The matrix assertions make parrotctl usable as a CI
// gate without JSON post-processing: -expect-digest fails on a matrix
// digest mismatch (bit-exactness), -min-cached fails when the cached-cell
// fraction is below the threshold (warm-cache effectiveness).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parrot/internal/energy"
	"parrot/internal/serve/client"
	"parrot/internal/serve/proto"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func defaultServer() string {
	if s := os.Getenv("PARROTD"); s != "" {
		return s
	}
	return "http://127.0.0.1:8044"
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: parrotctl <run|matrix|get|health|top|trace|cluster> [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "run":
		return cmdRun(rest)
	case "matrix":
		return cmdMatrix(rest)
	case "get":
		return cmdGet(rest)
	case "health":
		return cmdHealth(rest)
	case "top":
		return cmdTop(rest)
	case "trace":
		return cmdTrace(rest)
	case "cluster":
		return cmdCluster(rest)
	default:
		return fmt.Errorf("parrotctl: unknown subcommand %q", cmd)
	}
}

func newFlagSet(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("parrotctl "+name, flag.ExitOnError)
	server := fs.String("server", defaultServer(), "parrotd base URL (or $PARROTD)")
	return fs, server
}

func cmdRun(args []string) error {
	fs, server := newFlagSet("run")
	model := fs.String("model", "TON", "machine model")
	app := fs.String("app", "swim", "application name")
	n := fs.Int("n", 0, "dynamic instructions (0 = profile default)")
	priority := fs.String("priority", proto.PriorityInteractive, "queue class: interactive or batch")
	timeout := fs.Duration("timeout", 2*time.Minute, "request deadline")
	jsonOut := fs.Bool("json", false, "emit the raw response as JSON")
	fs.Parse(args)

	c := client.New(*server)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	resp, err := c.Run(ctx, proto.RunRequest{Model: *model, App: *app, Insts: *n, Priority: *priority})
	if err != nil {
		return err
	}
	if *jsonOut {
		return emitJSON(resp)
	}
	r := resp.Result
	disp := resp.Disposition
	if disp == "" { // pre-disposition servers
		disp = "computed"
		if resp.Cached {
			disp = "cache hit"
		}
	}
	fmt.Printf("model %s on %s (%s)  [%s in %s]\n\n", r.Model, r.App, r.Suite, disp, us(resp.ElapsedUs))
	fmt.Printf("  digest         %s\n", resp.Digest)
	if resp.RequestID != "" {
		fmt.Printf("  request id     %s\n", resp.RequestID)
	}
	fmt.Printf("  instructions   %12d\n", r.Insts)
	fmt.Printf("  cycles         %12d\n", r.Cycles)
	fmt.Printf("  IPC            %12.3f\n", r.IPC())
	fmt.Printf("  dynamic energy %12.4g\n", r.DynEnergy)
	if r.HotInsts > 0 {
		fmt.Printf("  trace coverage %12.3f\n", r.Coverage())
	}
	fmt.Println("\n  energy breakdown (dynamic):")
	for comp := energy.Component(0); comp < energy.NumComponents; comp++ {
		if r.Breakdown[comp] == 0 {
			continue
		}
		fmt.Printf("    %-12s %6.1f%%\n", comp, 100*r.Breakdown[comp]/r.DynEnergy)
	}
	return nil
}

func cmdMatrix(args []string) error {
	fs, server := newFlagSet("matrix")
	models := fs.String("models", "", "comma-separated model subset (empty = all 7)")
	apps := fs.String("apps", "", "comma-separated application subset (empty = all 44)")
	n := fs.Int("n", 0, "dynamic instructions per application (0 = profile defaults)")
	timeout := fs.Duration("timeout", 10*time.Minute, "request deadline")
	progress := fs.Bool("progress", false, "relay SSE progress to stderr")
	expectDigest := fs.String("expect-digest", "", "fail unless the matrix digest equals this value")
	minCached := fs.Float64("min-cached", -1, "fail unless cachedCells/totalCells >= this fraction")
	verifyOwn := fs.Bool("verify-owners", false, "rebuild the ring from /clusterz and fail unless every cache-hit cell was served by its ring owner")
	jsonOut := fs.Bool("json", false, "emit the raw response as JSON (cells included)")
	fs.Parse(args)

	c := client.New(*server)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var onProgress func(proto.Progress)
	if *progress {
		onProgress = func(p proto.Progress) {
			fmt.Fprintf(os.Stderr, "\r%d/%d cells  elapsed %s  eta %s   ",
				p.Done, p.Total, us(p.ElapsedUs), us(p.EtaUs))
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	resp, err := c.Matrix(ctx, proto.MatrixRequest{
		Models: splitList(*models), Apps: splitList(*apps), Insts: *n,
	}, onProgress)
	if err != nil {
		return err
	}

	if *jsonOut {
		if err := emitJSON(resp); err != nil {
			return err
		}
	} else {
		frac := 0.0
		if resp.TotalCells > 0 {
			frac = float64(resp.CachedCells) / float64(resp.TotalCells)
		}
		fmt.Printf("matrix: %d cells in %s  (%d cached, %.1f%% hit)  P_MAX anchor %s\n",
			resp.TotalCells, us(resp.ElapsedUs), resp.CachedCells, 100*frac, resp.PMaxApp)
		if resp.FailedCells == 0 {
			fmt.Printf("digest: %s\n", resp.Digest)
		}
	}

	// A partial matrix has no digest or P_MAX anchor — list the failed
	// cells and fail, before any digest assertion can compare against "".
	if resp.FailedCells > 0 {
		for _, cell := range resp.Cells {
			if cell.Error != "" {
				fmt.Fprintf(os.Stderr, "  failed cell %s/%s: %s\n", cell.Model, cell.App, cell.Error)
			}
		}
		return fmt.Errorf("matrix partial: %d of %d cells failed", resp.FailedCells, resp.TotalCells)
	}

	// CI assertions.
	if *expectDigest != "" && resp.Digest != *expectDigest {
		return fmt.Errorf("matrix digest mismatch:\n got  %s\n want %s", resp.Digest, *expectDigest)
	}
	if *minCached >= 0 {
		frac := 0.0
		if resp.TotalCells > 0 {
			frac = float64(resp.CachedCells) / float64(resp.TotalCells)
		}
		if frac < *minCached {
			return fmt.Errorf("cached fraction %.3f below required %.3f (%d/%d cells)",
				frac, *minCached, resp.CachedCells, resp.TotalCells)
		}
	}
	if *verifyOwn {
		return verifyOwners(ctx, c, resp)
	}
	return nil
}

func cmdGet(args []string) error {
	fs, server := newFlagSet("get")
	digest := fs.String("digest", "", "result content address (RunSpec digest)")
	fs.Parse(args)
	if *digest == "" {
		return fmt.Errorf("parrotctl get: -digest required")
	}
	c := client.New(*server)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := c.Result(ctx, *digest)
	if err != nil {
		return err
	}
	return emitJSON(resp)
}

func cmdHealth(args []string) error {
	fs, server := newFlagSet("health")
	fs.Parse(args)
	c := client.New(*server)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h, err := c.Health(ctx)
	if err != nil {
		return err
	}
	return emitJSON(h)
}

func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func us(v int64) string {
	return time.Duration(v * int64(time.Microsecond)).Round(time.Millisecond).String()
}
