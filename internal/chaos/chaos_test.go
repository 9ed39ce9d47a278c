package chaos

import (
	"errors"
	"net"
	"testing"
	"time"
)

// TestSameSeedSameSchedule pins the acceptance criterion: the injection
// schedule is a pure function of (seed, site, decision index), so two
// injectors built from the same seed and rules produce identical decision
// sequences regardless of when or from where the sites are evaluated.
func TestSameSeedSameSchedule(t *testing.T) {
	rules := []Rule{
		{Site: "sched.run", P: 0.6, Latency: 40 * time.Millisecond, Jitter: 20 * time.Millisecond},
		{Site: "cache.disk.get", P: 0.25, Err: true},
		{Site: "cluster.clock", P: 0.5, Skew: 3 * time.Second},
	}
	a := New(42, rules)
	b := New(42, rules)
	for i := 0; i < 200; i++ {
		for _, site := range []string{"sched.run", "cache.disk.get", "cluster.clock"} {
			oa := a.Evaluate(site, "subj")
			ob := b.Evaluate(site, "subj")
			if oa != ob && !(oa.Err != nil && ob.Err != nil) {
				t.Fatalf("decision %d at %s diverged: %+v vs %+v", i, site, oa, ob)
			}
			if (oa.Err == nil) != (ob.Err == nil) {
				t.Fatalf("decision %d at %s err diverged", i, site)
			}
		}
	}
}

// TestDifferentSeedDifferentSchedule: a different seed must change the
// schedule somewhere within a modest horizon, or the seed knob is dead.
func TestDifferentSeedDifferentSchedule(t *testing.T) {
	rules := []Rule{{Site: "sched.run", P: 0.5, Err: true}}
	a, b := New(1, rules), New(2, rules)
	for i := 0; i < 200; i++ {
		if (a.Evaluate("sched.run", "").Err == nil) != (b.Evaluate("sched.run", "").Err == nil) {
			return
		}
	}
	t.Fatal("seeds 1 and 2 produced identical 200-decision schedules")
}

// TestScheduleIndependentOfInterleaving: interleaving evaluations of other
// sites must not perturb a site's own decision stream.
func TestScheduleIndependentOfInterleaving(t *testing.T) {
	rules := []Rule{
		{Site: "a", P: 0.5, Err: true},
		{Site: "b", P: 0.5, Err: true},
	}
	solo := New(7, rules)
	var want []bool
	for i := 0; i < 64; i++ {
		want = append(want, solo.Evaluate("a", "").Err != nil)
	}
	mixed := New(7, rules)
	var got []bool
	for i := 0; i < 64; i++ {
		mixed.Evaluate("b", "") // interleaved traffic on another site
		got = append(got, mixed.Evaluate("a", "").Err != nil)
		mixed.Evaluate("b", "")
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("decision %d on site a changed under interleaving", i)
		}
	}
}

func TestParse(t *testing.T) {
	rules, err := Parse("site=sched.run p=0.6 lat=40ms jitter=20ms; site=cluster.partition err match=7102 ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	r := rules[0]
	if r.Site != "sched.run" || r.P != 0.6 || r.Latency != 40*time.Millisecond || r.Jitter != 20*time.Millisecond || r.Err {
		t.Fatalf("rule 0 = %+v", r)
	}
	r = rules[1]
	if r.Site != "cluster.partition" || r.P != 1 || !r.Err || r.Match != "7102" {
		t.Fatalf("rule 1 = %+v", r)
	}

	for _, bad := range []string{
		"p=0.5",                // no site
		"site=x p=2",           // probability out of range
		"site=x p=NaN",         // not a probability at all
		"site=x p=-Inf",        // likewise
		"site=x lat=banana",    // unparseable duration
		"site=x wobble=1",      // unknown field
		"site=x err=sometimes", // err takes no value
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted a bad spec", bad)
		}
	}
}

// TestPartitionMaskStable: partition decisions are per-pair masks, not
// per-call coin flips.
func TestPartitionMaskStable(t *testing.T) {
	in := New(11, []Rule{{Site: "cluster.partition", P: 0.5}})
	first := make(map[string]bool)
	pairs := [][2]string{{"a", "b"}, {"a", "c"}, {"b", "a"}, {"c", "a"}, {"b", "c"}, {"c", "b"}}
	for _, p := range pairs {
		first[p[0]+"->"+p[1]] = in.Partitioned("cluster.partition", p[0], p[1])
	}
	for i := 0; i < 50; i++ {
		for _, p := range pairs {
			if got := in.Partitioned("cluster.partition", p[0], p[1]); got != first[p[0]+"->"+p[1]] {
				t.Fatalf("partition mask for %s->%s flapped", p[0], p[1])
			}
		}
	}
}

// TestPartitionMatchScopesMask: match restricts the mask to named links;
// p=1 partitions every matched pair and no other.
func TestPartitionMatchScopesMask(t *testing.T) {
	in := New(3, []Rule{{Site: "cluster.partition", P: 1, Match: "nodeB"}})
	if !in.Partitioned("cluster.partition", "nodeA", "nodeB") {
		t.Fatal("matched link not partitioned at p=1")
	}
	if in.Partitioned("cluster.partition", "nodeA", "nodeC") {
		t.Fatal("unmatched link partitioned")
	}
	if err := in.PartitionErr("cluster.partition", "nodeA", "nodeB"); !errors.Is(err, ErrInjected) {
		t.Fatalf("PartitionErr = %v, want ErrInjected", err)
	}
}

// TestInjectedErrorIsTransportClass: injected faults must look like real
// network failures to transport-error classifiers.
func TestInjectedErrorIsTransportClass(t *testing.T) {
	var ne net.Error
	err := error(&InjectedError{Site: "cluster.partition"})
	if !errors.As(err, &ne) {
		t.Fatal("InjectedError does not satisfy net.Error")
	}
	if ne.Timeout() {
		t.Fatal("injected fault should not be a timeout")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatal("InjectedError does not match ErrInjected")
	}
}

// TestNilInjectorIsInert: every hook must be a no-op on a nil receiver so
// call sites need no guards.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Inject("sched.run", "x"); err != nil {
		t.Fatal(err)
	}
	if d := in.Skew("cluster.clock"); d != 0 {
		t.Fatal("nil injector skewed the clock")
	}
	if in.Partitioned("cluster.partition", "a", "b") {
		t.Fatal("nil injector partitioned a link")
	}
	if err := in.PartitionErr("cluster.partition", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); st != nil {
		t.Fatalf("nil injector stats = %v", st)
	}
	in.Register(nil)
	if New(1, nil) != nil {
		t.Fatal("empty rule set should build a nil injector")
	}
}

// TestLatencyInjection: firing rules sleep through the injector's sleep
// seam with base + bounded jitter.
func TestLatencyInjection(t *testing.T) {
	in := New(5, []Rule{{Site: "sched.run", P: 1, Latency: 40 * time.Millisecond, Jitter: 20 * time.Millisecond}})
	var slept []time.Duration
	in.sleep = func(d time.Duration) { slept = append(slept, d) }
	for i := 0; i < 32; i++ {
		if err := in.Inject("sched.run", ""); err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 32 {
		t.Fatalf("slept %d times, want 32", len(slept))
	}
	for _, d := range slept {
		if d < 40*time.Millisecond || d >= 60*time.Millisecond {
			t.Fatalf("injected delay %s outside [40ms,60ms)", d)
		}
	}
	st := in.Stats()["sched.run"]
	if st.Evals != 32 || st.Fired != 32 {
		t.Fatalf("stats = %+v, want 32/32", st)
	}
}
