package core

import (
	"testing"

	"parrot/internal/config"
	"parrot/internal/isa"
)

// enqueue decodes a prebuilt item's uop, as every uop writer does, and
// pushes the item toward dispatch.
func (m *Machine) enqueue(it dispatchItem) {
	it.uop.Decode()
	*m.dqAlloc() = it
}

func mkSimpleInst(pc uint64, nUops int) *isa.Inst {
	in := &isa.Inst{PC: pc, Size: 4, Kind: isa.KindSimple}
	for i := 0; i < nUops; i++ {
		u := isa.NewUop(isa.OpAdd)
		u.Dst[0] = isa.GPR(i % 8)
		u.Src[0] = isa.GPR(1)
		u.Src[1] = isa.GPR(2)
		in.Uops = append(in.Uops, u)
	}
	if nUops > 2 {
		in.Kind = isa.KindComplex
	}
	in.Decode()
	return in
}

func TestDecodeGroupWidthLimit(t *testing.T) {
	m := New(config.Get(config.N)) // decode width 4
	m.clock = 100
	for i := 0; i < 4; i++ {
		in := mkSimpleInst(uint64(0x1000+i*4), 1)
		if !m.decodeSlotFree(in) {
			t.Fatalf("slot %d should be free", i)
		}
		m.useDecodeSlot(in)
	}
	if m.decodeSlotFree(mkSimpleInst(0x2000, 1)) {
		t.Error("fifth instruction must wait for the next cycle")
	}
	m.clock++
	if !m.decodeSlotFree(mkSimpleInst(0x2000, 1)) {
		t.Error("new cycle must reset the group")
	}
}

func TestComplexDecodesAloneAtGroupHead(t *testing.T) {
	m := New(config.Get(config.N))
	m.clock = 100
	simple := mkSimpleInst(0x1000, 1)
	complexIn := mkSimpleInst(0x2000, 3)

	// Complex after a simple: must wait.
	m.useDecodeSlot(simple)
	if m.decodeSlotFree(complexIn) {
		t.Error("complex instruction cannot join a started group")
	}
	// Fresh group: complex fits, and a second complex cannot follow.
	m.clock++
	if !m.decodeSlotFree(complexIn) {
		t.Error("complex must fit at group head")
	}
	m.useDecodeSlot(complexIn)
	if m.decodeSlotFree(mkSimpleInst(0x3000, 3)) {
		t.Error("two complex instructions in one group")
	}
}

func TestFrontBlockedOnStallTimer(t *testing.T) {
	m := New(config.Get(config.N))
	m.clock = 10
	m.fetchStallUntil = 15
	if !m.frontBlocked() {
		t.Error("fetch must be blocked by the stall timer")
	}
	m.clock = 15
	if m.frontBlocked() {
		t.Error("fetch must resume at the deadline")
	}
}

func TestFrontBlockedOnPendingBranch(t *testing.T) {
	m := New(config.Get(config.N))
	// Dispatch a divide-fed branch and mark it as the pending resolve point.
	div := isa.NewUop(isa.OpDiv)
	div.Dst[0] = isa.GPR(1)
	div.Src[0] = isa.GPR(2)
	div.Src[1] = isa.GPR(3)
	cmp := isa.NewUop(isa.OpCmp)
	cmp.Dst[0] = isa.RegFlags
	cmp.Src[0] = isa.GPR(1)
	cmp.Src[1] = isa.GPR(2)
	br := isa.NewUop(isa.OpBr)
	br.Src[0] = isa.RegFlags
	br.Cond = isa.CondEQ
	div.Decode()
	cmp.Decode()
	br.Decode()
	m.cold.Dispatch(&div, 0, true, false)
	m.cold.Dispatch(&cmp, 0, true, false)
	h := m.cold.Dispatch(&br, 0, true, false)
	m.pendingBranch = h
	m.pendingEngine = m.cold

	blockedCycles := 0
	for m.frontBlocked() {
		m.tick()
		blockedCycles++
		if blockedCycles > 200 {
			t.Fatal("branch never resolved")
		}
	}
	// The divide (12 cycles) gates the compare and branch; after resolve,
	// the refill stall must have been applied.
	if blockedCycles < 12 {
		t.Errorf("resolve wait %d cycles, expected at least the divide latency", blockedCycles)
	}
	if m.pendingBranch != 0 {
		t.Error("pending branch not cleared")
	}
}

func TestDQBackpressureBlocksFetch(t *testing.T) {
	m := New(config.Get(config.N))
	for i := 0; i < 4*m.model.Core.Width+1; i++ {
		u := isa.NewUop(isa.OpAdd)
		u.Dst[0] = isa.GPR(1)
		m.enqueue(dispatchItem{uop: u})
	}
	if !m.frontBlocked() {
		t.Error("oversized dispatch queue must block fetch")
	}
	// Ticking drains the queue and unblocks.
	for i := 0; i < 10 && m.frontBlocked(); i++ {
		m.tick()
	}
	if m.frontBlocked() {
		t.Error("queue never drained")
	}
}

func TestHotSupplyBandwidth(t *testing.T) {
	m := New(config.Get(config.TON)) // TraceFetchUops 8
	m.clock = 50
	for i := 0; i < m.model.TraceFetchUops; i++ {
		if !m.hotSupplyFree() {
			t.Fatalf("supply slot %d should be free", i)
		}
		m.useHotSupply()
	}
	if m.hotSupplyFree() {
		t.Error("supply beyond trace-fetch width in one cycle")
	}
	m.clock++
	if !m.hotSupplyFree() {
		t.Error("new cycle must reset trace-fetch bandwidth")
	}
}

// TestBlockedDispatchSkipMatchesTicks pins the dispatch-blocked
// fast-forward. With the queue head held back by a full issue queue (a
// stream of divides), a full ROB (independent adds behind a divide chain)
// or, on the split model, a full cold engine while a register switch back
// to it is pending, stepping through the windows in jumps leaves the
// machine exactly where cycle-by-cycle ticks do — clock, switch energy and
// every engine statistic, stall counts included — in fewer ticks.
func TestBlockedDispatchSkipMatchesTicks(t *testing.T) {
	div := func(d, s int) isa.Uop {
		u := isa.NewUop(isa.OpDiv)
		u.Dst[0], u.Src[0], u.Src[1] = isa.GPR(d), isa.GPR(s), isa.GPR(9)
		return u
	}
	add := func(d int) isa.Uop {
		u := isa.NewUop(isa.OpAdd)
		u.Dst[0], u.Src[0], u.Src[1] = isa.GPR(d), isa.GPR(10), isa.GPR(11)
		return u
	}
	for _, tc := range []struct {
		name  string
		model config.ModelID
		item  func(i int) dispatchItem
	}{
		{"iq-full", config.N, func(i int) dispatchItem {
			return dispatchItem{uop: div(i%8, 8)}
		}},
		{"rob-full", config.N, func(i int) dispatchItem {
			if i%16 == 0 {
				return dispatchItem{uop: div(8, 8)}
			}
			return dispatchItem{uop: add(i % 8)}
		}},
		{"split-switch", config.TOS, func(i int) dispatchItem {
			if i >= 40 && i < 48 {
				return dispatchItem{uop: add(i % 8), hot: true}
			}
			return dispatchItem{uop: div(i%8, 8)}
		}},
	} {
		fill := func() *Machine {
			m := New(config.Get(tc.model))
			for i := 0; i < 400; i++ {
				it := tc.item(i)
				it.lastUop = true
				m.enqueue(it)
			}
			return m
		}
		skip, tick := fill(), fill()
		for skip.dqLen() > 0 {
			skip.step()
		}
		for tick.dqLen() > 0 {
			tick.tick()
		}
		if skip.clock != tick.clock || skip.cold.Stats != tick.cold.Stats ||
			skip.hot.Stats != tick.hot.Stats || skip.countsHot != tick.countsHot {
			t.Fatalf("%s: skipping diverged:\n skip clock %d %+v\n tick clock %d %+v",
				tc.name, skip.clock, skip.cold.Stats, tick.clock, tick.cold.Stats)
		}
		if st := &skip.cold.Stats; st.StallROBFull == 0 && st.StallIQFull == 0 {
			t.Fatalf("%s: no dispatch stalls (%+v)", tc.name, *st)
		}
		w, v := skip.Work(), tick.Work()
		if w.Ticks >= v.Ticks || w.Ticks+w.Skipped != v.Ticks {
			t.Errorf("%s: skip work %+v, tick work %+v", tc.name, w, v)
		}
	}
}
