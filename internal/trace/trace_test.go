package trace

import (
	"testing"
	"testing/quick"

	"parrot/internal/isa"
	"parrot/internal/workload"
)

func TestTIDDirs(t *testing.T) {
	tid := TID{Start: 0x1000}
	tid = tid.WithDir(true)
	tid = tid.WithDir(false)
	tid = tid.WithDir(true)
	if tid.NDirs != 3 || !tid.Dir(0) || tid.Dir(1) || !tid.Dir(2) {
		t.Errorf("dirs wrong: %v", tid)
	}
	if tid.String() != "0x1000:TNT" {
		t.Errorf("String = %q", tid.String())
	}
	if !tid.Valid() || (TID{}).Valid() {
		t.Error("validity misreported")
	}
}

func TestTIDConcat(t *testing.T) {
	a := TID{Start: 0x1000}.WithDir(true).WithDir(false)
	b := TID{Start: 0x1000}.WithDir(true).WithDir(false)
	j := a.Concat(b)
	if j.Start != 0x1000 || j.NDirs != 4 {
		t.Fatalf("concat = %v", j)
	}
	for i, want := range []bool{true, false, true, false} {
		if j.Dir(i) != want {
			t.Errorf("dir %d = %v", i, j.Dir(i))
		}
	}
}

// Property: a joined trace's TID cut to its first k units is the TID the
// selector's joining had after k units, up to the full 64 direction bits.
func TestTIDPrefixOfJoins(t *testing.T) {
	f := func(start, dirs uint64, width uint8) bool {
		unit := TID{Start: start}
		for i := 0; i < int(width%8)+1; i++ {
			unit = unit.WithDir(dirs>>i&1 == 1)
		}
		joined := unit
		var steps []TID
		for int(joined.NDirs)+int(unit.NDirs) <= 64 {
			joined = joined.Concat(unit)
			steps = append(steps, joined)
		}
		for _, s := range steps {
			if joined.Prefix(int(s.NDirs)) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: distinct direction strings give distinct keys (within 16 bits).
func TestTIDKeySensitivity(t *testing.T) {
	f := func(start uint64, dirs1, dirs2 uint16) bool {
		if dirs1 == dirs2 {
			return true
		}
		a := TID{Start: start, Dirs: uint64(dirs1), NDirs: 16}
		b := TID{Start: start, Dirs: uint64(dirs2), NDirs: 16}
		return a.Key() != b.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Helpers building synthetic committed streams.

func mkInst(pc uint64, kind isa.InstKind, nUops int, target uint64) *isa.Inst {
	in := &isa.Inst{PC: pc, Size: 4, Kind: kind, Target: target}
	for i := 0; i < nUops; i++ {
		u := isa.NewUop(isa.OpAdd)
		u.Dst[0] = isa.GPR(i % 8)
		u.Src[0] = isa.GPR((i + 1) % 8)
		u.Src[1] = isa.GPR((i + 2) % 8)
		in.Uops = append(in.Uops, u)
	}
	if kind == isa.KindBranch {
		in.Uops[len(in.Uops)-1] = isa.NewUop(isa.OpBr)
		in.Uops[len(in.Uops)-1].Src[0] = isa.RegFlags
		in.Uops[len(in.Uops)-1].Cond = isa.CondNE
	}
	if kind == isa.KindRet {
		in.Uops[len(in.Uops)-1] = isa.NewUop(isa.OpRet)
	}
	if kind == isa.KindCall {
		in.Uops[len(in.Uops)-1] = isa.NewUop(isa.OpCall)
	}
	if kind == isa.KindJumpInd {
		in.Uops[len(in.Uops)-1] = isa.NewUop(isa.OpJmpI)
	}
	in.Decode()
	return in
}

func dyn(in *isa.Inst, taken bool) workload.DynInst {
	return workload.DynInst{Inst: in, Taken: taken, NextPC: in.FallThrough()}
}

func feedAll(sel *Selector, ds []workload.DynInst) []Segment {
	var out []Segment
	for _, d := range ds {
		out = append(out, sel.Feed(&d)...)
	}
	out = append(out, sel.Flush()...)
	return out
}

func TestSelectorBackwardTakenTerminates(t *testing.T) {
	// Loop: body of 3 insts ending with backward-taken branch. Two
	// iterations then exit: with joining, both iterations merge.
	body := []*isa.Inst{
		mkInst(0x100, isa.KindSimple, 1, 0),
		mkInst(0x104, isa.KindSimple, 1, 0),
		mkInst(0x108, isa.KindBranch, 2, 0x100), // backward branch
	}
	var stream []workload.DynInst
	for it := 0; it < 2; it++ {
		stream = append(stream, dyn(body[0], false), dyn(body[1], false), dyn(body[2], it == 0))
	}
	segs := feedAll(NewSelector(), stream)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2 (taken-iteration, exit-iteration)", len(segs))
	}
	if segs[0].TID.Start != 0x100 || segs[0].TID.NDirs != 1 || !segs[0].TID.Dir(0) {
		t.Errorf("first segment TID = %v", segs[0].TID)
	}
	if segs[1].TID.NDirs != 1 || segs[1].TID.Dir(0) {
		t.Errorf("exit segment TID = %v", segs[1].TID)
	}
}

func TestSelectorJoinsIdenticalIterations(t *testing.T) {
	// 3 identical taken iterations of 4 uops each join into one 12-uop
	// trace (loop unrolling); a final differing iteration flushes it.
	body := []*isa.Inst{
		mkInst(0x200, isa.KindSimple, 2, 0),
		mkInst(0x208, isa.KindBranch, 2, 0x200),
	}
	var stream []workload.DynInst
	for it := 0; it < 4; it++ {
		stream = append(stream, dyn(body[0], false), dyn(body[1], it < 3))
	}
	segs := feedAll(NewSelector(), stream)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if segs[0].Joined != 3 {
		t.Errorf("joined = %d, want 3", segs[0].Joined)
	}
	if segs[0].Uops != 12 || segs[0].TID.NDirs != 3 {
		t.Errorf("joined segment = %d uops, %d dirs", segs[0].Uops, segs[0].TID.NDirs)
	}
}

func TestSelectorJoiningRespectsCapacity(t *testing.T) {
	// 20-uop iterations: only 3 fit into the 64-uop frame.
	body := []*isa.Inst{
		mkInst(0x300, isa.KindComplex, 9, 0),
		mkInst(0x30c, isa.KindComplex, 9, 0),
		mkInst(0x318, isa.KindBranch, 2, 0x300),
	}
	var stream []workload.DynInst
	for it := 0; it < 7; it++ {
		stream = append(stream, dyn(body[0], false), dyn(body[1], false), dyn(body[2], it < 6))
	}
	segs := feedAll(NewSelector(), stream)
	for _, s := range segs {
		if s.Uops > MaxUops {
			t.Fatalf("segment exceeds frame: %d uops", s.Uops)
		}
	}
	if segs[0].Joined != 3 || segs[0].Uops != 60 {
		t.Errorf("first unrolled segment = %d joined, %d uops", segs[0].Joined, segs[0].Uops)
	}
}

func TestSelectorIndirectJumpTerminates(t *testing.T) {
	stream := []workload.DynInst{
		dyn(mkInst(0x400, isa.KindSimple, 1, 0), false),
		dyn(mkInst(0x404, isa.KindJumpInd, 1, 0), true),
		dyn(mkInst(0x500, isa.KindSimple, 1, 0), false),
	}
	segs := feedAll(NewSelector(), stream)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if segs[0].NumInsts() != 2 {
		t.Errorf("first segment insts = %d, want 2 (ind jump included)", segs[0].NumInsts())
	}
}

func TestSelectorRetContextCounter(t *testing.T) {
	// call f; f body; ret — the ret returns into a context seen in the
	// trace, so it must NOT terminate (procedure inlining).
	stream := []workload.DynInst{
		dyn(mkInst(0x600, isa.KindCall, 1, 0x700), true),
		dyn(mkInst(0x700, isa.KindSimple, 1, 0), false),
		dyn(mkInst(0x704, isa.KindRet, 1, 0), true),
		dyn(mkInst(0x605, isa.KindSimple, 1, 0), false),
	}
	s := stream[3]
	s.EpisodeEnd = true
	stream[3] = s
	segs := feedAll(NewSelector(), stream)
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1 (inlined call)", len(segs))
	}
	if segs[0].NumInsts() != 4 {
		t.Errorf("inlined segment = %d insts", segs[0].NumInsts())
	}
}

func TestSelectorBareRetTerminates(t *testing.T) {
	// A ret without a preceding call in the trace exits the outermost
	// context and terminates.
	stream := []workload.DynInst{
		dyn(mkInst(0x800, isa.KindSimple, 1, 0), false),
		dyn(mkInst(0x804, isa.KindRet, 1, 0), true),
		dyn(mkInst(0x900, isa.KindSimple, 1, 0), false),
	}
	segs := feedAll(NewSelector(), stream)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
}

func TestSelectorCapacitySplitsHugeBlocks(t *testing.T) {
	// A run of plain instructions with no CTI must split at the frame.
	var stream []workload.DynInst
	for i := 0; i < 40; i++ {
		stream = append(stream, dyn(mkInst(uint64(0xA00+i*4), isa.KindComplex, 3, 0), false))
	}
	segs := feedAll(NewSelector(), stream)
	for _, s := range segs {
		if s.Uops > MaxUops {
			t.Fatalf("segment uops %d > frame", s.Uops)
		}
	}
	if len(segs) < 2 {
		t.Fatal("huge block must split into multiple frames")
	}
}

func TestSelectorEpisodeEndTerminates(t *testing.T) {
	in := mkInst(0xB00, isa.KindSimple, 1, 0)
	d := dyn(in, false)
	d.EpisodeEnd = true
	segs := feedAll(NewSelector(), []workload.DynInst{d, dyn(mkInst(0xB04, isa.KindSimple, 1, 0), false)})
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
}

func TestSelectorOnRealWorkload(t *testing.T) {
	p, _ := workload.ByName("gcc")
	prog := workload.Generate(p)
	s := workload.NewStream(prog, 30000)
	sel := NewSelector()
	insts := 0
	var segs []Segment
	for {
		d, ok := s.Next()
		if !ok {
			break
		}
		insts++
		segs = append(segs, sel.Feed(&d)...)
	}
	segs = append(segs, sel.Flush()...)

	total := 0
	for _, sg := range segs {
		total += sg.NumInsts()
		if sg.Uops > MaxUops {
			t.Fatalf("segment %v exceeds capacity: %d", sg.TID, sg.Uops)
		}
		if sg.Uops == 0 || sg.NumInsts() == 0 {
			t.Fatal("empty segment emitted")
		}
	}
	if total != insts {
		t.Fatalf("segments cover %d of %d instructions", total, insts)
	}
	// Hot loops must yield repeated TIDs.
	counts := map[uint64]int{}
	for _, sg := range segs {
		counts[sg.TID.Key()]++
	}
	maxReuse := 0
	for _, c := range counts {
		if c > maxReuse {
			maxReuse = c
		}
	}
	if maxReuse < 10 {
		t.Errorf("hottest TID reused only %d times", maxReuse)
	}
}

func TestBuildTrace(t *testing.T) {
	body := []*isa.Inst{
		mkInst(0x200, isa.KindSimple, 2, 0),
		mkInst(0x208, isa.KindBranch, 2, 0x200),
	}
	stream := []workload.DynInst{dyn(body[0], false), dyn(body[1], true), dyn(body[0], false), dyn(body[1], false)}
	segs := feedAll(NewSelector(), stream)
	if len(segs) != 2 {
		t.Fatalf("segments = %d", len(segs))
	}
	tr := Build(&segs[0])
	if len(tr.Uops) != 4 || tr.NumInsts != 2 || tr.Branches != 1 {
		t.Fatalf("trace = %d uops %d insts %d branches", len(tr.Uops), tr.NumInsts, tr.Branches)
	}
	last := tr.Uops[len(tr.Uops)-1]
	if last.Op != isa.OpBr || !last.Taken {
		t.Errorf("embedded direction missing: %v", last)
	}
	if tr.OrigUops != 4 || tr.Optimized {
		t.Errorf("orig bookkeeping wrong: %+v", tr)
	}
}

func TestBuildCountsMemOps(t *testing.T) {
	in := &isa.Inst{PC: 0x100, Size: 4, Kind: isa.KindSimple}
	ld := isa.NewUop(isa.OpLoad)
	ld.Dst[0] = isa.GPR(1)
	ld.Src[0] = isa.GPR(2)
	st := isa.NewUop(isa.OpStore)
	st.Src[0] = isa.GPR(1)
	st.Src[1] = isa.GPR(3)
	in.Uops = []isa.Uop{ld, st}
	in.Decode()
	d := dyn(in, false)
	d.EpisodeEnd = true
	segs := feedAll(NewSelector(), []workload.DynInst{d})
	if segs[0].MemUops != 2 {
		t.Errorf("segment MemUops = %d, want 2", segs[0].MemUops)
	}
	tr := Build(&segs[0])
	if tr.MemOps != 2 {
		t.Errorf("MemOps = %d, want 2", tr.MemOps)
	}
	if CountMemOps(tr.Uops) != 2 {
		t.Errorf("CountMemOps = %d", CountMemOps(tr.Uops))
	}
}
