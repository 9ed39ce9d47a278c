package workload

import (
	"testing"
	"unsafe"

	"parrot/internal/isa"
)

// TestDynInstSize pins the packed layout of DynInst: the three bools share
// the word after the three 8-byte fields. A field added or moved in front
// of them grows every selection log and selector slab by a quarter.
func TestDynInstSize(t *testing.T) {
	if got := unsafe.Sizeof(DynInst{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(DynInst{}) = %d bytes, want 32", got)
	}
}

// TestProgramsDecoded checks the generator's half of the decode-once
// invariant: in every application's program, each uop's dispatch form
// equals a fresh decode and each instruction's MemUops counts its memory
// uops.
func TestProgramsDecoded(t *testing.T) {
	for _, p := range Apps() {
		prog := Generate(p)
		for _, b := range prog.Blocks() {
			for i := range b.Insts {
				in := &b.Insts[i]
				mem := 0
				for k := range in.Uops {
					u := &in.Uops[k]
					if u.Form != isa.FormOf(u) {
						t.Fatalf("%s %#x uop %d (%v): form %+v, fresh decode %+v",
							p.Name, in.PC, k, *u, u.Form, isa.FormOf(u))
					}
					if u.Op.IsMem() {
						mem++
					}
				}
				if int(in.MemUops) != mem {
					t.Fatalf("%s %#x: MemUops %d, %d memory uops", p.Name, in.PC, in.MemUops, mem)
				}
			}
		}
	}
}

func TestAppsRoster(t *testing.T) {
	apps := Apps()
	if len(apps) != 44 {
		t.Fatalf("len(Apps()) = %d, want 44 (the paper's benchmark count)", len(apps))
	}
	wantCounts := map[Suite]int{SpecInt: 11, SpecFP: 11, Office: 6, Multimedia: 11, DotNet: 5}
	got := map[Suite]int{}
	names := map[string]bool{}
	for _, p := range apps {
		got[p.Suite]++
		if names[p.Name] {
			t.Errorf("duplicate app name %q", p.Name)
		}
		names[p.Name] = true
	}
	for s, n := range wantCounts {
		if got[s] != n {
			t.Errorf("suite %v has %d apps, want %d", s, got[s], n)
		}
	}
	for _, k := range KillerApps() {
		if !names[k] {
			t.Errorf("killer app %q missing from roster", k)
		}
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("swim")
	if !ok || p.Name != "swim" || p.Suite != SpecFP {
		t.Fatalf("ByName(swim) = %+v, %v", p, ok)
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName must fail for unknown apps")
	}
}

func TestSuiteApps(t *testing.T) {
	fp := SuiteApps(SpecFP)
	if len(fp) != 11 {
		t.Fatalf("SpecFP apps = %d", len(fp))
	}
	for _, p := range fp {
		if p.Suite != SpecFP {
			t.Errorf("%s in wrong suite", p.Name)
		}
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range Apps() {
		if p.HotFraction <= 0 || p.HotFraction > 1 {
			t.Errorf("%s: HotFraction %v out of range", p.Name, p.HotFraction)
		}
		if p.NumLoops < 1 || p.ColdBlocks < 10 {
			t.Errorf("%s: degenerate structure %d loops %d cold", p.Name, p.NumLoops, p.ColdBlocks)
		}
		if p.CondBias < 0.5 || p.CondBias > 1 {
			t.Errorf("%s: CondBias %v", p.Name, p.CondBias)
		}
		if p.TripCount[0] < 2 || p.TripCount[1] <= p.TripCount[0]-1 {
			t.Errorf("%s: TripCount %v", p.Name, p.TripCount)
		}
		sum := p.DeadFrac + p.ConstFrac + p.CopyFrac + p.FuseFrac + p.SimdFrac
		if sum > 0.85 {
			t.Errorf("%s: redundancy fractions sum %v leaves too little plain code", p.Name, sum)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("gcc")
	a := Generate(p)
	b := Generate(p)
	if a.StaticInsts() != b.StaticInsts() || len(a.Blocks()) != len(b.Blocks()) {
		t.Fatal("generation must be deterministic")
	}
	for i, ba := range a.Blocks() {
		bb := b.Blocks()[i]
		if len(ba.Insts) != len(bb.Insts) {
			t.Fatalf("block %d sizes differ", i)
		}
		for j := range ba.Insts {
			if ba.Insts[j].PC != bb.Insts[j].PC || len(ba.Insts[j].Uops) != len(bb.Insts[j].Uops) {
				t.Fatalf("block %d inst %d differs", i, j)
			}
		}
	}
}

func TestProgramStructure(t *testing.T) {
	p, _ := ByName("swim")
	prog := Generate(p)
	if len(prog.Loops) != p.NumLoops {
		t.Errorf("loops = %d, want %d", len(prog.Loops), p.NumLoops)
	}
	if len(prog.Cold) != p.ColdBlocks {
		t.Errorf("cold blocks = %d, want %d", len(prog.Cold), p.ColdBlocks)
	}
	for _, l := range prog.Loops {
		last := l.Body[len(l.Body)-1]
		if last.Term != TermLoopBack {
			t.Errorf("loop %d does not end with back-edge", l.ID)
		}
		if last.Taken != l.Body[0] {
			t.Errorf("loop %d back-edge does not target header", l.ID)
		}
		term := last.Insts[len(last.Insts)-1]
		if term.Kind != isa.KindBranch {
			t.Errorf("loop %d terminator kind %v", l.ID, term.Kind)
		}
		if term.Target != l.Body[0].PC() {
			t.Errorf("loop %d target %#x, want header %#x", l.ID, term.Target, l.Body[0].PC())
		}
		if term.Target >= term.PC {
			t.Errorf("loop %d back-edge is not backward", l.ID)
		}
	}
	for _, pr := range prog.Procs {
		last := pr.Blocks[len(pr.Blocks)-1]
		if last.Term != TermRet {
			t.Errorf("proc %d does not end with ret", pr.ID)
		}
	}
}

func TestPCsMonotoneAndSized(t *testing.T) {
	p, _ := ByName("gzip")
	prog := Generate(p)
	var prevEnd uint64
	for _, b := range prog.Blocks() {
		for _, in := range b.Insts {
			if in.Size < 1 || in.Size > 15 {
				t.Fatalf("inst size %d out of IA32 range", in.Size)
			}
			if in.PC < prevEnd {
				t.Fatalf("overlapping layout at %#x", in.PC)
			}
			prevEnd = in.PC + uint64(in.Size)
		}
	}
}

func TestMemStreamParallelism(t *testing.T) {
	p, _ := ByName("art")
	prog := Generate(p)
	for _, b := range prog.Blocks() {
		if len(b.MemStream) != len(b.Insts) {
			t.Fatalf("MemStream not parallel to Insts")
		}
		for i, in := range b.Insts {
			hasMem := false
			for _, u := range in.Uops {
				if u.Op.IsMem() {
					hasMem = true
				}
			}
			if hasMem && b.MemStream[i] < 0 && in.Kind != isa.KindComplex {
				t.Errorf("memory inst without stream id: %v", in)
			}
			if !hasMem && b.MemStream[i] >= 0 {
				t.Errorf("non-memory inst with stream id: %v", in)
			}
		}
	}
}

func TestStreamLengthAndDeterminism(t *testing.T) {
	p, _ := ByName("flash")
	prog := Generate(p)
	s1 := NewStream(prog, 20000)
	s2 := NewStream(prog, 20000)
	n := 0
	for {
		a, ok1 := s1.Next()
		b, ok2 := s2.Next()
		if ok1 != ok2 {
			t.Fatal("streams diverge in length")
		}
		if !ok1 {
			break
		}
		if a.Inst != b.Inst || a.Taken != b.Taken || a.MemAddr != b.MemAddr || a.NextPC != b.NextPC {
			t.Fatalf("streams diverge at %d", n)
		}
		n++
	}
	if n != 20000 {
		t.Fatalf("stream length = %d, want 20000", n)
	}
}

func TestStreamHotFraction(t *testing.T) {
	for _, name := range []string{"swim", "gcc", "word"} {
		p, _ := ByName(name)
		prog := Generate(p)
		s := NewStream(prog, 60000)
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		got := s.HotFractionObserved()
		if got < p.HotFraction-0.12 || got > p.HotFraction+0.12 {
			t.Errorf("%s: hot fraction %v, profile %v", name, got, p.HotFraction)
		}
	}
}

func TestStreamControlConsistency(t *testing.T) {
	p, _ := ByName("perlbmk")
	prog := Generate(p)
	s := NewStream(prog, 30000)
	var prev DynInst
	have := false
	for {
		d, ok := s.Next()
		if !ok {
			break
		}
		if have && !prev.EpisodeEnd {
			// Within an episode the stream must be PC-consistent: the next
			// instruction lives at prev.NextPC.
			if d.Inst.PC != prev.NextPC {
				t.Fatalf("PC discontinuity without EpisodeEnd: %#x -> %#x",
					prev.NextPC, d.Inst.PC)
			}
		}
		if d.Inst.Kind.IsCTI() {
			if d.Taken && d.Inst.Kind == isa.KindBranch && d.NextPC == d.Inst.FallThrough() && d.Inst.Target != d.Inst.FallThrough() {
				t.Fatal("taken branch with fall-through NextPC")
			}
		} else if d.Taken {
			t.Fatal("non-CTI marked taken")
		}
		prev = d
		have = true
	}
}

func TestStreamMemoryAddresses(t *testing.T) {
	p, _ := ByName("equake")
	prog := Generate(p)
	s := NewStream(prog, 30000)
	memInsts := 0
	total := 0
	for {
		d, ok := s.Next()
		if !ok {
			break
		}
		total++
		hasMem := false
		for _, u := range d.Inst.Uops {
			if u.Op.IsMem() {
				hasMem = true
			}
		}
		if hasMem {
			memInsts++
			if d.MemAddr == 0 {
				t.Fatal("memory instruction without address")
			}
		}
	}
	frac := float64(memInsts) / float64(total)
	if frac < 0.15 || frac > 0.55 {
		t.Errorf("memory instruction fraction = %v", frac)
	}
}

func TestEpisodeEndsExist(t *testing.T) {
	p, _ := ByName("vpr")
	prog := Generate(p)
	s := NewStream(prog, 30000)
	ends := 0
	for {
		d, ok := s.Next()
		if !ok {
			break
		}
		if d.EpisodeEnd {
			ends++
		}
	}
	if ends < 10 {
		t.Errorf("only %d episode boundaries in 30k instructions", ends)
	}
}

func TestUopsPerInstructionPlausible(t *testing.T) {
	for _, name := range []string{"gcc", "swim", "flash"} {
		p, _ := ByName(name)
		prog := Generate(p)
		s := NewStream(prog, 20000)
		uops, insts := 0, 0
		for {
			d, ok := s.Next()
			if !ok {
				break
			}
			insts++
			uops += len(d.Inst.Uops)
		}
		upi := float64(uops) / float64(insts)
		if upi < 1.05 || upi > 1.9 {
			t.Errorf("%s: uops/inst = %v, outside IA32-plausible band", name, upi)
		}
	}
}

func TestColdFootprintExceedsHot(t *testing.T) {
	p, _ := ByName("word")
	prog := Generate(p)
	var hotBytes, coldBytes uint64
	for _, l := range prog.Loops {
		for _, b := range l.Body {
			for _, in := range b.Insts {
				hotBytes += uint64(in.Size)
			}
		}
	}
	for _, b := range prog.Cold {
		for _, in := range b.Insts {
			coldBytes += uint64(in.Size)
		}
	}
	if coldBytes < 5*hotBytes {
		t.Errorf("cold footprint %d should dwarf hot %d", coldBytes, hotBytes)
	}
	if coldBytes < 24<<10 {
		t.Errorf("cold footprint %d must be commensurate with a 32KB L1I", coldBytes)
	}
}
