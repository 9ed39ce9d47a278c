package ooo

import (
	"testing"

	"parrot/internal/isa"
)

func alu(d, s1, s2 int) isa.Uop {
	u := isa.NewUop(isa.OpAdd)
	u.Dst[0] = isa.GPR(d)
	u.Src[0] = isa.GPR(s1)
	u.Src[1] = isa.GPR(s2)
	return u
}

// dispatch decodes u, as every writer of a uop does, and dispatches it.
func dispatch(e *Engine, u isa.Uop, memAddr uint64, lastUop, traceEnd bool) Handle {
	u.Decode()
	return e.Dispatch(&u, memAddr, lastUop, traceEnd)
}

// run decodes the uops, dispatches them honoring width/backpressure and
// runs to drain, returning total cycles.
func run(e *Engine, uops []isa.Uop, addrs []uint64) uint64 {
	isa.Decode(uops)
	return drive(e, uops, addrs)
}

// drive is run over already decoded uops.
func drive(e *Engine, uops []isa.Uop, addrs []uint64) uint64 {
	i := 0
	for i < len(uops) {
		dispatched := 0
		for dispatched < e.Config().Width && i < len(uops) && e.CanDispatch() {
			var addr uint64
			if uops[i].Op.IsMem() && addrs != nil {
				addr = addrs[i]
			}
			e.Dispatch(&uops[i], addr, true, false)
			i++
			dispatched++
		}
		e.Cycle()
	}
	e.Drain()
	return e.Stats.Cycles
}

func TestSerialChainIsSerial(t *testing.T) {
	e := New(Narrow(), nil)
	var prog []isa.Uop
	for i := 0; i < 40; i++ {
		prog = append(prog, alu(1, 1, 2)) // r1 = r1+r2, fully serial
	}
	cycles := run(e, prog, nil)
	if cycles < 40 {
		t.Errorf("serial chain of 40 finished in %d cycles", cycles)
	}
	if e.Stats.UopsCommitted != 40 {
		t.Errorf("committed = %d", e.Stats.UopsCommitted)
	}
}

func TestParallelThroughput(t *testing.T) {
	e := New(Narrow(), nil)
	var prog []isa.Uop
	for i := 0; i < 400; i++ {
		prog = append(prog, alu(i%8, 8+i%4, 12+i%4))
	}
	cycles := run(e, prog, nil)
	// 4-wide machine: 400 independent ALU ops need ~100 cycles.
	if cycles > 130 {
		t.Errorf("independent ops: %d cycles for 400 uops on 4-wide", cycles)
	}
}

func TestWideBeatsNarrowOnParallelCode(t *testing.T) {
	mk := func(cfg Config) uint64 {
		e := New(cfg, nil)
		var prog []isa.Uop
		for i := 0; i < 800; i++ {
			prog = append(prog, alu(i%12, 12+i%2, 14+i%2))
		}
		return run(e, prog, nil)
	}
	n, w := mk(Narrow()), mk(Wide())
	if float64(n)/float64(w) < 1.6 {
		t.Errorf("wide speedup only %vx (n=%d w=%d)", float64(n)/float64(w), n, w)
	}
}

func TestWideEqualsNarrowOnSerialCode(t *testing.T) {
	mk := func(cfg Config) uint64 {
		e := New(cfg, nil)
		var prog []isa.Uop
		for i := 0; i < 200; i++ {
			prog = append(prog, alu(1, 1, 2))
		}
		return run(e, prog, nil)
	}
	n, w := mk(Narrow()), mk(Wide())
	if float64(n)/float64(w) > 1.1 {
		t.Errorf("serial code must not speed up with width: n=%d w=%d", n, w)
	}
}

func TestLoadLatencyRespected(t *testing.T) {
	e := New(Narrow(), func(addr uint64, write bool) int { return 20 }) // all miss
	ld := isa.NewUop(isa.OpLoad)
	ld.Dst[0] = isa.GPR(1)
	ld.Src[0] = isa.GPR(2)
	use := alu(3, 1, 1)
	cycles := run(e, []isa.Uop{ld, use}, []uint64{0x100, 0})
	if cycles < 23 {
		t.Errorf("dependent use of missing load finished in %d cycles", cycles)
	}
}

func TestLoadWaitsForAliasingStore(t *testing.T) {
	// store [r2] <- r9 where r9 comes from a slow multiply chain; then
	// load [r2]: the load must wait for the store.
	var prog []isa.Uop
	mul := isa.NewUop(isa.OpMul)
	mul.Dst[0] = isa.GPR(9)
	mul.Src[0] = isa.GPR(8)
	mul.Src[1] = isa.GPR(8)
	for i := 0; i < 6; i++ {
		m := mul
		m.Src[0] = isa.GPR(9)
		prog = append(prog, m) // serial multiply chain ~18 cycles
	}
	st := isa.NewUop(isa.OpStore)
	st.Src[0] = isa.GPR(2)
	st.Src[1] = isa.GPR(9)
	ld := isa.NewUop(isa.OpLoad)
	ld.Dst[0] = isa.GPR(1)
	ld.Src[0] = isa.GPR(2)
	prog = append(prog, st, ld)
	addrs := make([]uint64, len(prog))
	addrs[len(prog)-2] = 0x4000
	addrs[len(prog)-1] = 0x4000
	e := New(Narrow(), nil)
	cycles := run(e, prog, addrs)
	if cycles < 18 {
		t.Errorf("aliasing load bypassed pending store: %d cycles", cycles)
	}

	// Control: different address must be faster.
	addrs[len(prog)-1] = 0x8000
	e2 := New(Narrow(), nil)
	prog2 := append([]isa.Uop(nil), prog...)
	c2 := run(e2, prog2, addrs)
	if c2 > cycles {
		t.Errorf("independent load slower than aliasing load: %d vs %d", c2, cycles)
	}
}

func TestCommitInOrder(t *testing.T) {
	// A slow divide followed by fast adds: nothing may commit before the
	// divide, so committed count stays 0 until it completes.
	e := New(Narrow(), nil)
	div := isa.NewUop(isa.OpDiv)
	div.Dst[0] = isa.GPR(1)
	div.Src[0] = isa.GPR(2)
	div.Src[1] = isa.GPR(3)
	dispatch(e, div, 0, true, false)
	for i := 0; i < 3; i++ {
		u := alu(4+i, 8, 9)
		dispatch(e, u, 0, true, false)
	}
	for i := 0; i < 5; i++ {
		e.Cycle()
	}
	if e.Stats.UopsCommitted != 0 {
		t.Errorf("committed %d uops before divide finished", e.Stats.UopsCommitted)
	}
	e.Drain()
	if e.Stats.UopsCommitted != 4 {
		t.Errorf("committed = %d", e.Stats.UopsCommitted)
	}
}

func TestBackpressure(t *testing.T) {
	cfg := Narrow()
	cfg.IQSize = 4
	e := New(cfg, nil)
	// A divide blocks the queue; independent adds pile up.
	div := isa.NewUop(isa.OpDiv)
	div.Dst[0] = isa.GPR(1)
	div.Src[0] = isa.GPR(1)
	div.Src[1] = isa.GPR(1)
	dispatch(e, div, 0, true, false)
	for e.CanDispatch() {
		u := alu(2, 3, 4)
		dispatch(e, u, 0, true, false)
	}
	if e.IQLen() != cfg.IQSize {
		t.Errorf("iq = %d, want full %d", e.IQLen(), cfg.IQSize)
	}
	e.Drain()
	if !e.CanDispatch() {
		t.Error("drained engine must accept dispatch")
	}
}

func TestHandlesAndRetirement(t *testing.T) {
	e := New(Narrow(), nil)
	u := alu(1, 2, 3)
	h := dispatch(e, u, 0, true, false)
	if e.Done(h) || e.Retired(h) {
		t.Error("fresh uop cannot be done")
	}
	e.Drain()
	if !e.Done(h) || !e.Retired(h) {
		t.Error("drained uop must be done and retired")
	}
}

func TestInstructionAndTraceAccounting(t *testing.T) {
	e := New(Narrow(), nil)
	// Two "instructions" of 2 uops each; second ends a trace.
	for i := 0; i < 4; i++ {
		u := alu(i, 8, 9)
		dispatch(e, u, 0, i == 1 || i == 3, i == 3)
	}
	insts, traces := e.Drain()
	if insts != 2 || traces != 1 {
		t.Errorf("insts=%d traces=%d", insts, traces)
	}
}

func TestFlagDependencyThroughRename(t *testing.T) {
	// cmp writes flags; br reads them: br cannot issue before cmp.
	e := New(Narrow(), nil)
	cmp := isa.NewUop(isa.OpCmp)
	cmp.Dst[0] = isa.RegFlags
	cmp.Src[0] = isa.GPR(1)
	cmp.Src[1] = isa.GPR(2)
	// Make cmp slow by feeding it from a divide.
	div := isa.NewUop(isa.OpDiv)
	div.Dst[0] = isa.GPR(1)
	div.Src[0] = isa.GPR(3)
	div.Src[1] = isa.GPR(4)
	br := isa.NewUop(isa.OpBr)
	br.Src[0] = isa.RegFlags
	br.Cond = isa.CondEQ
	dispatch(e, div, 0, true, false)
	dispatch(e, cmp, 0, true, false)
	h := dispatch(e, br, 0, true, false)
	for i := 0; i < 6; i++ {
		e.Cycle()
	}
	if e.Done(h) {
		t.Error("branch resolved before its flags producer")
	}
	e.Drain()
	if !e.Done(h) {
		t.Error("branch must resolve at drain")
	}
}

func TestStatsClassCounts(t *testing.T) {
	e := New(Narrow(), nil)
	u := alu(1, 2, 3)
	f := isa.NewUop(isa.OpFMul)
	f.Dst[0] = isa.FPR(0)
	f.Src[0] = isa.FPR(1)
	f.Src[1] = isa.FPR(2)
	dispatch(e, u, 0, true, false)
	dispatch(e, f, 0, true, false)
	e.Drain()
	if e.Stats.OpsByClass[isa.ClassIntALU] != 1 || e.Stats.OpsByClass[isa.ClassFPMul] != 1 {
		t.Errorf("class counts: %v", e.Stats.OpsByClass)
	}
	if e.Stats.UopsDispatched != 2 || e.Stats.UopsIssued != 2 {
		t.Errorf("stats: %+v", e.Stats)
	}
}

func TestDegenerateConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad config must panic")
		}
	}()
	New(Config{Width: 0}, nil)
}
