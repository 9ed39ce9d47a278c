// Package chaos is a seeded, deterministic fault-injection registry.
//
// Production code calls nil-safe hooks (Inject, Skew, Partitioned) at named
// sites; with no injector configured the hooks are no-ops. When parrotd is
// started with -chaos, a rule set parsed from a small spec language arms the
// sites with latency spikes, error injection, clock skew, or partition masks.
//
// Determinism is the point: the k-th decision taken at a site is a pure
// function of (seed, site, k) — goroutine interleaving changes which caller
// observes which decision, but never the schedule itself. The same
// PARROT_CHAOS seed therefore replays the same injection sequence, which is
// what makes overload and partition failures reproducible in CI.
//
// Sites wired in this repository:
//
//	sched.run          extra latency / failures around each simulation run
//	cache.disk.get     slow or failing disk-cache reads (failure = miss)
//	cache.disk.put     slow or failing disk-cache writes (failure = DiskErrors)
//	client.request     serve/client outbound request faults
//	cluster.partition  stable partition mask between peers (from->to subjects)
//	cluster.probe      membership health-probe failures
//	cluster.clock      clock skew applied to membership ticks
//
// Spec language: rules separated by ';', fields separated by spaces:
//
//	site=sched.run p=0.6 lat=40ms jitter=20ms
//	site=cluster.partition p=1 match=7102 err
//
// Fields: site (required), p (probability, default 1), lat (base latency),
// jitter (adds a deterministic uniform [0,jitter)), err (inject a fault),
// skew (clock skew when fired), match (substring filter on the subject).
package chaos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"parrot/internal/telemetry"
)

// ErrInjected is the sentinel all injected faults match via errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// InjectedError is a concrete injected fault. It implements net.Error so
// transport-level consumers (the cluster client, serve/client retry
// classification) treat injected partitions exactly like real dial
// failures — which is what makes partition masks demote peers through the
// same passive-failure path a genuine outage would.
type InjectedError struct {
	Site    string
	Subject string
}

func (e *InjectedError) Error() string {
	if e.Subject == "" {
		return "chaos: injected fault at " + e.Site
	}
	return "chaos: injected fault at " + e.Site + " (" + e.Subject + ")"
}

// Timeout and Temporary satisfy net.Error.
func (e *InjectedError) Timeout() bool        { return false }
func (e *InjectedError) Temporary() bool      { return true }
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Rule arms one site with one fault behavior.
type Rule struct {
	Site    string        // injection site name (required)
	P       float64       // firing probability per evaluation, (0,1]
	Latency time.Duration // base injected delay when fired
	Jitter  time.Duration // + deterministic uniform [0, Jitter)
	Err     bool          // return an *InjectedError when fired
	Skew    time.Duration // clock skew contributed when fired
	Match   string        // substring the subject must contain ("" = all)
}

func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "site=%s p=%g", r.Site, r.P)
	if r.Latency > 0 {
		fmt.Fprintf(&b, " lat=%s", r.Latency)
	}
	if r.Jitter > 0 {
		fmt.Fprintf(&b, " jitter=%s", r.Jitter)
	}
	if r.Err {
		b.WriteString(" err")
	}
	if r.Skew != 0 {
		fmt.Fprintf(&b, " skew=%s", r.Skew)
	}
	if r.Match != "" {
		fmt.Fprintf(&b, " match=%s", r.Match)
	}
	return b.String()
}

// Outcome is one site evaluation's combined effect.
type Outcome struct {
	Delay time.Duration
	Err   error
	Skew  time.Duration
}

// Injector evaluates rules at sites. All methods are safe on a nil
// receiver (no-ops), so call sites need no guards.
type Injector struct {
	seed  uint64
	rules map[string][]Rule

	mu    sync.Mutex
	base  map[string]uint64 // memoized per-site stream base
	k     map[string]uint64 // per-site decision counter
	evals map[string]uint64
	fired map[string]uint64
	sleep func(time.Duration) // test seam; time.Sleep by default
}

// New builds an injector from a seed and rule set. Returns nil when the
// rule set is empty, so "no chaos" stays the nil fast path.
func New(seed uint64, rules []Rule) *Injector {
	if len(rules) == 0 {
		return nil
	}
	in := &Injector{
		seed:  seed,
		rules: make(map[string][]Rule),
		base:  make(map[string]uint64),
		k:     make(map[string]uint64),
		evals: make(map[string]uint64),
		fired: make(map[string]uint64),
		sleep: time.Sleep,
	}
	for _, r := range rules {
		in.rules[r.Site] = append(in.rules[r.Site], r)
	}
	return in
}

// Parse decodes the ';'-separated rule spec language.
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, chunk := range strings.Split(spec, ";") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		r := Rule{P: 1}
		for _, tok := range strings.Fields(chunk) {
			key, val, hasVal := strings.Cut(tok, "=")
			switch key {
			case "site":
				r.Site = val
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				// Written so NaN, which fails every comparison, is rejected.
				if err != nil || !(p > 0 && p <= 1) {
					return nil, fmt.Errorf("chaos: bad probability %q in rule %q", val, chunk)
				}
				r.P = p
			case "lat":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("chaos: bad latency %q in rule %q", val, chunk)
				}
				r.Latency = d
			case "jitter":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("chaos: bad jitter %q in rule %q", val, chunk)
				}
				r.Jitter = d
			case "err":
				if hasVal && val != "true" {
					return nil, fmt.Errorf("chaos: err takes no value in rule %q", chunk)
				}
				r.Err = true
			case "skew":
				d, err := time.ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("chaos: bad skew %q in rule %q", val, chunk)
				}
				r.Skew = d
			case "match":
				r.Match = val
			default:
				return nil, fmt.Errorf("chaos: unknown field %q in rule %q", key, chunk)
			}
		}
		if r.Site == "" {
			return nil, fmt.Errorf("chaos: rule %q has no site", chunk)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// SeedFromEnv reads the PARROT_CHAOS seed knob (default 1), so a failing
// chaos run can be replayed deterministically by exporting the same value.
func SeedFromEnv() uint64 {
	if v := os.Getenv("PARROT_CHAOS"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n
		}
	}
	return 1
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

func (in *Injector) siteBase(site string) uint64 {
	b, ok := in.base[site]
	if !ok {
		b = splitmix64(in.seed ^ fnv64(site))
		in.base[site] = b
	}
	return b
}

// Evaluate runs every rule bound to site against subject and returns the
// combined outcome without sleeping. The decision sequence at a site is a
// pure function of (seed, site, decision index).
func (in *Injector) Evaluate(site, subject string) Outcome {
	var out Outcome
	if in == nil {
		return out
	}
	rules := in.rules[site]
	if len(rules) == 0 {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.evals[site]++
	firedAny := false
	for _, r := range rules {
		if r.Match != "" && !strings.Contains(subject, r.Match) {
			continue
		}
		k := in.k[site]
		in.k[site]++
		x := splitmix64(in.siteBase(site) + k)
		if unit(x) >= r.P {
			continue
		}
		firedAny = true
		if r.Latency > 0 || r.Jitter > 0 {
			d := r.Latency
			if r.Jitter > 0 {
				d += time.Duration(float64(r.Jitter) * unit(splitmix64(x)))
			}
			out.Delay += d
		}
		if r.Err && out.Err == nil {
			out.Err = &InjectedError{Site: site, Subject: subject}
		}
		out.Skew += r.Skew
	}
	if firedAny {
		in.fired[site]++
	}
	return out
}

// Inject evaluates site, sleeps any injected latency, and returns the
// injected error (nil when nothing fired).
func (in *Injector) Inject(site, subject string) error {
	if in == nil {
		return nil
	}
	out := in.Evaluate(site, subject)
	if out.Delay > 0 {
		in.sleep(out.Delay)
	}
	return out.Err
}

// Skew returns the clock skew injected at site for this evaluation.
func (in *Injector) Skew(site string) time.Duration {
	if in == nil {
		return 0
	}
	return in.Evaluate(site, "").Skew
}

// Partitioned reports whether the directed link from -> to is masked at
// site. Unlike Evaluate, the mask is stable: a given (seed, site, pair)
// is either always partitioned or never — a mask, not a coin flip per
// call — so partitions behave like real network cuts.
func (in *Injector) Partitioned(site, from, to string) bool {
	if in == nil {
		return false
	}
	rules := in.rules[site]
	if len(rules) == 0 {
		return false
	}
	subject := from + "->" + to
	in.mu.Lock()
	defer in.mu.Unlock()
	in.evals[site]++
	for _, r := range rules {
		if r.Match != "" && !strings.Contains(subject, r.Match) {
			continue
		}
		if unit(splitmix64(in.siteBase(site)^fnv64(subject))) < r.P {
			in.fired[site]++
			return true
		}
	}
	return false
}

// PartitionErr is Partitioned returning a transport-class injected error
// when the link is masked.
func (in *Injector) PartitionErr(site, from, to string) error {
	if in.Partitioned(site, from, to) {
		return &InjectedError{Site: site, Subject: from + "->" + to}
	}
	return nil
}

// SiteStats counts one site's evaluations and fired injections.
type SiteStats struct {
	Evals uint64
	Fired uint64
}

// Stats snapshots per-site counters.
func (in *Injector) Stats() map[string]SiteStats {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]SiteStats, len(in.evals))
	for site, n := range in.evals {
		out[site] = SiteStats{Evals: n, Fired: in.fired[site]}
	}
	return out
}

// Register exposes parrot_chaos_* families on the telemetry registry.
func (in *Injector) Register(reg *telemetry.Registry) {
	if in == nil || reg == nil {
		return
	}
	reg.RegisterCollector(func(emit telemetry.Emit) {
		st := in.Stats()
		sites := make([]string, 0, len(st))
		for s := range st {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		for _, s := range sites {
			emit("parrot_chaos_evals_total", "counter",
				"Chaos-site evaluations.", float64(st[s].Evals), "site", s)
			emit("parrot_chaos_injections_total", "counter",
				"Chaos evaluations that fired at least one rule.", float64(st[s].Fired), "site", s)
		}
	})
}
