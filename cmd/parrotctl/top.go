package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"parrot/internal/serve/client"
	"parrot/internal/telemetry"
)

// cmdTop scrapes /metricsz and renders a service dashboard: request and
// cell-disposition rates, queue state, cache and pool effectiveness, fleet
// throughput. One-shot by default; -watch re-scrapes on an interval and
// redraws in place. -expect turns the scrape into a CI assertion.
func cmdTop(args []string) error {
	fs, server := newFlagSet("top")
	watch := fs.Duration("watch", 0, "re-scrape and redraw on this interval (0 = one-shot)")
	raw := fs.Bool("raw", false, "dump the raw Prometheus exposition instead of the table")
	var expects expectList
	fs.Var(&expects, "expect", "assert `series op value` (e.g. 'parrot_requests_total{code=\"200\",route=\"run\"}>=1'); repeatable, non-matching exits 1")
	fs.Parse(args)

	c := client.New(*server)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		exp, err := c.MetricsText(ctx)
		cancel()
		if err != nil {
			return err
		}
		if *raw {
			for _, key := range exp.Names {
				fmt.Printf("%s %g\n", key, exp.Series[key])
			}
		} else {
			if *watch > 0 {
				fmt.Print("\x1b[2J\x1b[H") // clear + home
			}
			renderTop(exp, c.Base())
		}
		if err := expects.check(exp); err != nil {
			return err
		}
		if *watch <= 0 {
			return nil
		}
		time.Sleep(*watch)
	}
}

// renderTop draws the dashboard from one parsed scrape.
func renderTop(e *telemetry.Exposition, base string) {
	get := func(key string) float64 { v, _ := e.Get(key); return v }
	famSum := func(name string) float64 {
		var s float64
		for _, k := range e.Family(name) {
			s += e.Series[k]
		}
		return s
	}
	// labelVal extracts one label's value from a series key.
	labelVal := func(key, label string) string {
		i := strings.Index(key, label+`="`)
		if i < 0 {
			return ""
		}
		rest := key[i+len(label)+2:]
		if j := strings.Index(rest, `"`); j >= 0 {
			return rest[:j]
		}
		return ""
	}

	up := time.Duration(get("parrot_uptime_seconds") * float64(time.Second)).Round(time.Second)
	fmt.Printf("parrotd %s  up %s  goroutines %.0f  workers %.0f  running %.0f\n",
		base, up, get("parrot_goroutines"), get("parrot_sched_workers"), get("parrot_sched_running"))

	// Requests by route (5xx called out).
	byRoute := map[string]float64{}
	var errs float64
	for _, k := range e.Family("parrot_requests_total") {
		byRoute[labelVal(k, "route")] += e.Series[k]
		if strings.HasPrefix(labelVal(k, "code"), "5") {
			errs += e.Series[k]
		}
	}
	routes := make([]string, 0, len(byRoute))
	for r := range byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	parts := make([]string, 0, len(routes))
	for _, r := range routes {
		parts = append(parts, fmt.Sprintf("%s %.0f", r, byRoute[r]))
	}
	fmt.Printf("requests   %s   (5xx %.0f)\n", strings.Join(parts, " | "), errs)

	// Cell dispositions in serving order.
	fmt.Printf("cells      hit %.0f | dedup %.0f | exact %.0f\n",
		get(`parrot_cell_requests_total{disposition="hit"}`),
		get(`parrot_cell_requests_total{disposition="dedup"}`),
		get(`parrot_cell_requests_total{disposition="exact"}`))

	p50i, _ := e.HistQuantile("parrot_queue_wait_seconds", `class="interactive"`, 0.5)
	p99b, _ := e.HistQuantile("parrot_queue_wait_seconds", `class="batch"`, 0.99)
	fmt.Printf("queue      depth int %.0f / batch %.0f   wait p50(int) %s  p99(batch) %s\n",
		get(`parrot_queue_depth{class="interactive"}`),
		get(`parrot_queue_depth{class="batch"}`),
		secs(p50i), secs(p99b))

	// Overload-resilience families (absent on an idle daemon = all zero).
	fmt.Printf("overload   shed int %.0f / batch %.0f  admit limit %.0f  deadline rej %.0f evict %.0f\n",
		get(`parrot_shed_total{class="interactive"}`),
		get(`parrot_shed_total{class="batch"}`),
		get("parrot_admit_limit"),
		get("parrot_deadline_rejected_total"),
		get("parrot_deadline_evicted_total"))

	lookups := famSum("parrot_cache_lookups_total")
	fmt.Printf("cache      entries %.0f  bytes %s  hit rate %.3f  evictions %.0f  lookups %.0f\n",
		get("parrot_cache_entries"), bytesHuman(get("parrot_cache_bytes")),
		get("parrot_cache_hit_rate"), get("parrot_cache_evictions_total"), lookups)

	fmt.Printf("pool       size %.0f  gets %.0f  reuses %.0f  discards %.0f\n",
		get("parrot_pool_size"), get("parrot_pool_gets_total"),
		get("parrot_pool_reuses_total"), get("parrot_pool_discards_total"))

	fmt.Printf("sim        insts %s  cycles %s  dyn energy %.4g  %.1f MIPS  busy %s\n",
		countHuman(get("parrot_sim_insts_total")), countHuman(get("parrot_sim_cycles_total")),
		get("parrot_sim_energy_dyn_total"), get("parrot_sched_sim_mips"),
		secs(get("parrot_sched_busy_seconds_total")))
}

func secs(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String()
}

func bytesHuman(v float64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

func countHuman(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// expectList accumulates repeated -expect assertions.
type expectList []expectation

type expectation struct {
	key      string // series key, e.g. parrot_requests_total{route="run"}
	op       string // >=, <=, ==, !=, >, <
	val      float64
	optional bool // '?' prefix: an absent series reads as 0 instead of failing
}

func (l *expectList) String() string { return fmt.Sprintf("%d assertions", len(*l)) }

// Set parses "series op value". A leading '?' marks the series optional:
// absent from the scrape evaluates as 0 rather than failing outright (for
// error counters that only materialize once the first error happens). The
// operator is searched after the label block so label values containing
// '<'/'>' cannot confuse it.
func (l *expectList) Set(s string) error {
	optional := strings.HasPrefix(s, "?")
	if optional {
		s = s[1:]
	}
	tail := s
	base := 0
	if i := strings.Index(s, "}"); i >= 0 {
		base = i + 1
		tail = s[base:]
	}
	for _, op := range []string{">=", "<=", "==", "!=", ">", "<"} {
		if j := strings.Index(tail, op); j >= 0 {
			key := strings.TrimSpace(s[:base+j])
			v, err := strconv.ParseFloat(strings.TrimSpace(tail[j+len(op):]), 64)
			if err != nil {
				return fmt.Errorf("bad -expect value in %q: %v", s, err)
			}
			*l = append(*l, expectation{key: key, op: op, val: v, optional: optional})
			return nil
		}
	}
	return fmt.Errorf("bad -expect %q: want 'series op value' with op in >=,<=,==,!=,>,<", s)
}

// check evaluates every assertion against a scrape; missing series fail
// unless the assertion was marked optional with '?'.
func (l expectList) check(e *telemetry.Exposition) error {
	for _, x := range l {
		got, ok := e.Get(x.key)
		if !ok {
			if !x.optional {
				return fmt.Errorf("expect failed: series %s absent from scrape", x.key)
			}
			got = 0
		}
		pass := false
		switch x.op {
		case ">=":
			pass = got >= x.val
		case "<=":
			pass = got <= x.val
		case "==":
			pass = got == x.val
		case "!=":
			pass = got != x.val
		case ">":
			pass = got > x.val
		case "<":
			pass = got < x.val
		}
		if !pass {
			return fmt.Errorf("expect failed: %s = %g, want %s %g", x.key, got, x.op, x.val)
		}
	}
	if len(l) > 0 {
		fmt.Fprintf(os.Stderr, "parrotctl top: %d assertion(s) passed\n", len(l))
	}
	return nil
}

// cmdTrace fetches a request's span timeline from /v1/trace/{id}. Default
// output is Chrome trace-event JSON (load in chrome://tracing / Perfetto,
// or redirect to a file); -table renders a human waterfall instead.
func cmdTrace(args []string) error {
	fs, server := newFlagSet("trace")
	id := fs.String("id", "", "request ID (from a response's requestId or the X-Parrot-Request-Id header)")
	out := fs.String("o", "", "write Chrome trace JSON to this file (default stdout)")
	table := fs.Bool("table", false, "render a span waterfall instead of JSON")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("parrotctl trace: -id required")
	}

	c := client.New(*server)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if *table {
		doc, err := c.TraceSpans(ctx, *id)
		if err != nil {
			return err
		}
		fmt.Printf("request %s  (%d spans", doc.RequestID, len(doc.Spans))
		if doc.Dropped > 0 {
			fmt.Printf(", %d dropped", doc.Dropped)
		}
		fmt.Println(")")
		for _, sp := range doc.Spans {
			row := "req"
			switch sp.TID {
			case telemetry.TIDWorker:
				row = "wrk"
			case telemetry.TIDCluster:
				row = "cls"
			}
			attrs := make([]string, 0, len(sp.Attrs))
			for k, v := range sp.Attrs {
				attrs = append(attrs, k+"="+v)
			}
			sort.Strings(attrs)
			fmt.Printf("  %s %9s +%-9s %-18s %s\n", row,
				time.Duration(sp.DurUs)*time.Microsecond,
				time.Duration(sp.StartUs)*time.Microsecond,
				sp.Name, strings.Join(attrs, " "))
		}
		return nil
	}

	b, err := c.Trace(ctx, *id)
	if err != nil {
		return err
	}
	if *out != "" {
		return os.WriteFile(*out, b, 0o644)
	}
	_, err = os.Stdout.Write(b)
	return err
}
