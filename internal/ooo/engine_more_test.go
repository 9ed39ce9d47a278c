package ooo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parrot/internal/isa"
)

// Property: dispatched == committed after drain, for random well-formed
// programs, and stats identities hold.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 10 + int(nRaw)%200
		rng := rand.New(rand.NewSource(seed))
		e := New(Narrow(), nil)
		dispatched := 0
		for dispatched < n {
			for i := 0; i < e.Config().Width && dispatched < n && e.CanDispatch(); i++ {
				u := isa.NewUop(isa.OpAdd)
				u.Dst[0] = isa.GPR(rng.Intn(16))
				u.Src[0] = isa.GPR(rng.Intn(16))
				u.Src[1] = isa.GPR(rng.Intn(16))
				dispatch(e, u, 0, true, false)
				dispatched++
			}
			e.Cycle()
		}
		e.Drain()
		return e.Stats.UopsDispatched == uint64(n) &&
			e.Stats.UopsCommitted == uint64(n) &&
			e.Stats.UopsIssued == uint64(n) &&
			e.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIssueRespectsUnitCounts(t *testing.T) {
	// One divide unit: two independent divides serialize.
	e := New(Narrow(), nil)
	for i := 0; i < 2; i++ {
		u := isa.NewUop(isa.OpDiv)
		u.Dst[0] = isa.GPR(i)
		u.Src[0] = isa.GPR(8)
		u.Src[1] = isa.GPR(9)
		dispatch(e, u, 0, true, false)
	}
	e.Drain()
	// Two serialized 12-cycle divides need >= 24 cycles.
	if e.Stats.Cycles < 24 {
		t.Errorf("two divides on one unit finished in %d cycles", e.Stats.Cycles)
	}
}

func TestIssueWidthCap(t *testing.T) {
	cfg := Narrow()
	cfg.IssueWidth = 2 // cap below ALU unit count
	e := New(cfg, nil)
	for i := 0; i < 8; i++ {
		u := isa.NewUop(isa.OpAdd)
		u.Dst[0] = isa.GPR(i)
		u.Src[0] = isa.GPR(12)
		u.Src[1] = isa.GPR(13)
		dispatch(e, u, 0, true, false)
	}
	e.Drain()
	// 8 independent adds at 2/cycle need at least 4 issue cycles.
	if e.Stats.Cycles < 4 {
		t.Errorf("issue width cap violated: %d cycles", e.Stats.Cycles)
	}
}

func TestMemLatencyCallbackReceivesAddressAndKind(t *testing.T) {
	var gotAddr uint64
	var gotWrite bool
	e := New(Narrow(), func(addr uint64, write bool) int {
		gotAddr, gotWrite = addr, write
		return 0
	})
	st := isa.NewUop(isa.OpStore)
	st.Src[0] = isa.GPR(1)
	st.Src[1] = isa.GPR(2)
	dispatch(e, st, 0xCAFE, true, false)
	e.Drain()
	if gotAddr != 0xCAFE || !gotWrite {
		t.Errorf("callback saw %#x write=%v", gotAddr, gotWrite)
	}
}

func TestStoresLeaveInFlightListAtCommit(t *testing.T) {
	e := New(Narrow(), nil)
	for i := 0; i < 20; i++ {
		st := isa.NewUop(isa.OpStore)
		st.Src[0] = isa.GPR(1)
		st.Src[1] = isa.GPR(2)
		dispatch(e, st, uint64(0x100+i*8), true, false)
		e.Cycle()
	}
	e.Drain()
	if e.StoreQueueLen() != 0 {
		t.Errorf("%d stores leaked in the disambiguation list", e.StoreQueueLen())
	}
}

func TestNarrowWideConfigsSane(t *testing.T) {
	n, w := Narrow(), Wide()
	if w.Width != 2*n.Width || w.IssueWidth != 2*n.IssueWidth || w.CommitWidth != 2*n.CommitWidth {
		t.Error("wide bandwidth must double narrow")
	}
	if w.ROBSize <= n.ROBSize || w.IQSize <= n.IQSize {
		t.Error("wide window must exceed narrow")
	}
	for c := isa.ExecClass(1); c < isa.NumExecClasses; c++ {
		if n.Units[c] == 0 {
			t.Errorf("narrow machine lacks %v units", c)
		}
		if w.Units[c] != 2*n.Units[c] {
			t.Errorf("wide %v units not doubled", c)
		}
	}
}

func TestPackedUopsExecute(t *testing.T) {
	// Fused and SIMD uops flow through the engine like plain ALU work.
	e := New(Narrow(), nil)
	fu := isa.NewUop(isa.OpFusedAluAlu)
	fu.SubOps = [2]isa.Op{isa.OpAdd, isa.OpXor}
	fu.Dst[0] = isa.GPR(1)
	fu.Src[0], fu.Src[1], fu.Src[2] = isa.GPR(2), isa.GPR(3), isa.GPR(4)
	sd := isa.NewUop(isa.OpSimd2)
	sd.SubOps[0] = isa.OpAdd
	sd.Dst[0], sd.Dst[1] = isa.GPR(5), isa.GPR(6)
	sd.Src[0], sd.Src[1], sd.Src[2], sd.Src[3] = isa.GPR(1), isa.GPR(2), isa.GPR(3), isa.GPR(4)
	dispatch(e, fu, 0, true, false)
	h := dispatch(e, sd, 0, true, false)
	e.Drain()
	if !e.Retired(h) {
		t.Error("packed uops did not retire")
	}
	if e.Stats.OpsByClass[isa.ClassIntALU] != 2 {
		t.Errorf("packed uops classed wrong: %v", e.Stats.OpsByClass)
	}
}

func TestSimdDependencyThroughSecondDst(t *testing.T) {
	// A consumer of the SIMD uop's second destination must wait for it.
	e := New(Narrow(), nil)
	slow := isa.NewUop(isa.OpDiv) // feeds the simd
	slow.Dst[0] = isa.GPR(3)
	slow.Src[0] = isa.GPR(8)
	slow.Src[1] = isa.GPR(9)
	sd := isa.NewUop(isa.OpSimd2)
	sd.SubOps[0] = isa.OpAdd
	sd.Dst[0], sd.Dst[1] = isa.GPR(5), isa.GPR(6)
	sd.Src[0], sd.Src[1], sd.Src[2], sd.Src[3] = isa.GPR(1), isa.GPR(2), isa.GPR(3), isa.GPR(4)
	use := isa.NewUop(isa.OpAdd)
	use.Dst[0] = isa.GPR(7)
	use.Src[0] = isa.GPR(6) // second lane's result
	use.Src[1] = isa.GPR(6)
	dispatch(e, slow, 0, true, false)
	dispatch(e, sd, 0, true, false)
	h := dispatch(e, use, 0, true, false)
	for i := 0; i < 6; i++ {
		e.Cycle()
	}
	if e.Done(h) {
		t.Error("consumer of simd lane 2 issued before the divide-fed simd")
	}
	e.Drain()
	if !e.Done(h) {
		t.Error("consumer never completed")
	}
}
