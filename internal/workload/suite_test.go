package workload

import (
	"testing"

	"parrot/internal/isa"
)

// measure runs a stream and returns distribution statistics used by the
// suite-characteristic tests.
type streamStats struct {
	insts      int
	branches   int
	taken      int
	biasedHits int // branches following their block's majority direction
	fpUops     int
	uops       int
	hotFrac    float64
}

func measure(t *testing.T, name string, n int) streamStats {
	t.Helper()
	p, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	prog := Generate(p)
	s := NewStream(prog, n)
	var st streamStats
	for {
		d, ok := s.Next()
		if !ok {
			break
		}
		st.insts++
		st.uops += len(d.Inst.Uops)
		for _, u := range d.Inst.Uops {
			if u.Op.Class() == isa.ClassFPAdd || u.Op.Class() == isa.ClassFPMul || u.Op.Class() == isa.ClassFPDiv {
				st.fpUops++
			}
		}
		if d.Inst.Kind == isa.KindBranch {
			st.branches++
			if d.Taken {
				st.taken++
			}
		}
	}
	st.hotFrac = s.HotFractionObserved()
	return st
}

func TestSuiteCharacterDifferences(t *testing.T) {
	fp := measure(t, "swim", 40000)
	in := measure(t, "gcc", 40000)

	// FP code carries FP work; integer code essentially none.
	fpShare := float64(fp.fpUops) / float64(fp.uops)
	inShare := float64(in.fpUops) / float64(in.uops)
	if fpShare < 0.2 {
		t.Errorf("swim FP share = %v", fpShare)
	}
	if inShare > 0.1 {
		t.Errorf("gcc FP share = %v", inShare)
	}

	// FP code is loop-dominated: hot fraction far above integer's.
	if fp.hotFrac <= in.hotFrac {
		t.Errorf("hot fractions inverted: swim %v vs gcc %v", fp.hotFrac, in.hotFrac)
	}
}

func TestBranchDensityRealistic(t *testing.T) {
	for _, name := range []string{"gcc", "swim", "word", "flash"} {
		st := measure(t, name, 30000)
		density := float64(st.branches) / float64(st.insts)
		if density < 0.05 || density > 0.30 {
			t.Errorf("%s: conditional branch density %v outside [0.05,0.30]", name, density)
		}
	}
}

func TestLoopBackEdgesMostlyTaken(t *testing.T) {
	// Loop-dominated code takes its conditional branches most of the time
	// (back-edges), a basic sanity property of the control structure.
	st := measure(t, "swim", 30000)
	rate := float64(st.taken) / float64(st.branches)
	if rate < 0.6 {
		t.Errorf("swim taken rate = %v, loop back-edges should dominate", rate)
	}
}

func TestKillerProfilesAreTraceFriendly(t *testing.T) {
	for _, name := range KillerApps() {
		p, _ := ByName(name)
		base := suiteBase(p.Suite)
		if p.HotFraction < base.HotFraction {
			t.Errorf("%s: killer app less hot than its suite base", name)
		}
		if p.FuseFrac+p.SimdFrac < base.FuseFrac+base.SimdFrac {
			t.Errorf("%s: killer app less optimizer-friendly than suite base", name)
		}
	}
}

func TestWorkingSetsVaryAcrossSuites(t *testing.T) {
	// Big-WS FP apps must exist (art, lucas) alongside small-WS integer.
	art, _ := ByName("art")
	gzipApp, _ := ByName("gzip")
	if art.WSData <= gzipApp.WSData {
		t.Errorf("art WS %d should exceed gzip %d", art.WSData, gzipApp.WSData)
	}
}

func TestStreamPoolShared(t *testing.T) {
	// The address-stream pool is bounded: locality comes from sharing.
	for _, name := range []string{"gcc", "swim"} {
		p, _ := ByName(name)
		prog := Generate(p)
		if prog.NumStreams() > streamPoolSize {
			t.Errorf("%s: %d streams exceed the pool", name, prog.NumStreams())
		}
	}
}

func TestSeedsIndependent(t *testing.T) {
	// Two different apps of the same suite produce different programs.
	a, _ := ByName("bzip")
	b, _ := ByName("crafty")
	pa, pb := Generate(a), Generate(b)
	if pa.StaticInsts() == pb.StaticInsts() && len(pa.Blocks()) == len(pb.Blocks()) {
		// Sizes could coincide; compare first block contents.
		ba, bb := pa.Blocks()[0], pb.Blocks()[0]
		same := len(ba.Insts) == len(bb.Insts)
		if same {
			for i := range ba.Insts {
				if ba.Insts[i].Kind != bb.Insts[i].Kind {
					same = false
					break
				}
			}
		}
		if same {
			t.Error("distinct apps generated identical programs")
		}
	}
}

// TestByNameIndex: every roster profile is found under its name, equal to
// the roster's own copy, and a caller mutating its copy cannot change what
// later lookups return.
func TestByNameIndex(t *testing.T) {
	for _, want := range Apps() {
		got, ok := ByName(want.Name)
		if !ok || got != want {
			t.Fatalf("ByName(%q) = %+v, %v; want the roster profile", want.Name, got, ok)
		}
		got.HotFraction = -1
		if again, _ := ByName(want.Name); again != want {
			t.Fatalf("mutating a looked-up %q profile changed the index", want.Name)
		}
	}
	if _, ok := ByName("no-such-app"); ok {
		t.Fatal("unknown name found")
	}
}
