package chaos

import "testing"

// FuzzChaosParse drives the -chaos rule parser, which reads operator
// input, with arbitrary specs. It must never panic, and every rule it
// accepts must be armable: a named site, a firing probability in (0, 1]
// and non-negative latency and jitter. Seeds: the committed corpus under
// testdata/fuzz plus the documented examples.
func FuzzChaosParse(f *testing.F) {
	for _, seed := range []string{
		"site=sched.run p=0.6 lat=40ms jitter=20ms",
		"site=cluster.partition p=1 match=7102 err",
		"site=cluster.clock skew=-3s; site=cache.disk.get p=0.1 err",
		"site=sched.run p=NaN lat=5ms",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := Parse(spec)
		if err != nil {
			return
		}
		for _, r := range rules {
			if r.Site == "" || !(r.P > 0 && r.P <= 1) || r.Latency < 0 || r.Jitter < 0 {
				t.Fatalf("Parse(%q) accepted an unarmable rule %+v", spec, r)
			}
		}
	})
}
