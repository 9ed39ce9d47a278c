package ooo

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"parrot/internal/isa"
	"parrot/internal/obs"
)

// The tests in this file lock in the bit-exact behaviour of the
// poll-everything engine ahead of the event-driven rewrite (PR 2): they
// assert the complete Stats vector of deterministic programs that stress the
// two subtlest issue-path hazards — non-pipelined divider contention across
// both divide classes, and load-vs-store disambiguation while the store ring
// wraps. The golden values below were captured on the pre-rewrite engine;
// the rewrite must reproduce them exactly.

// statsKey summarizes a Stats vector as a comparable string.
func statsKey(s Stats) string {
	return fmt.Sprintf("cyc=%d disp=%d iss=%d com=%d rr=%d rw=%d wake=%d robw=%d robr=%d cls=%v",
		s.Cycles, s.UopsDispatched, s.UopsIssued, s.UopsCommitted,
		s.RegReads, s.RegWrites, s.Wakeups, s.ROBWrites, s.ROBReads, s.OpsByClass)
}

// divSaturationProgram interleaves integer and FP divides (both non-pipelined
// classes) with dependent consumers so that unit busy windows overlap: at any
// time several divides of each class compete for the single (narrow) or dual
// (wide) units while their latencies (12 vs 14 cycles) drift in and out of
// phase.
func divSaturationProgram() []isa.Uop {
	var prog []isa.Uop
	for i := 0; i < 24; i++ {
		id := isa.NewUop(isa.OpDiv)
		id.Dst[0] = isa.GPR(i % 6)
		id.Src[0] = isa.GPR(8 + i%2)
		id.Src[1] = isa.GPR(10 + i%3)
		prog = append(prog, id)

		fd := isa.NewUop(isa.OpFDiv)
		fd.Dst[0] = isa.FPR(i % 5)
		fd.Src[0] = isa.FPR(8 + i%3)
		fd.Src[1] = isa.FPR(11 + i%2)
		prog = append(prog, fd)

		if i%3 == 0 {
			// Consumer of the most recent integer divide: wakeup ordering
			// between the two divide classes is observable here.
			use := isa.NewUop(isa.OpAdd)
			use.Dst[0] = isa.GPR(12)
			use.Src[0] = isa.GPR(i % 6)
			use.Src[1] = isa.GPR(12)
			prog = append(prog, use)
		}
		if i%4 == 1 {
			fuse := isa.NewUop(isa.OpFAdd)
			fuse.Dst[0] = isa.FPR(6)
			fuse.Src[0] = isa.FPR(i % 5)
			fuse.Src[1] = isa.FPR(6)
			prog = append(prog, fuse)
		}
	}
	return prog
}

const (
	goldenDivContentionNarrow = "cyc=337 disp=62 iss=62 com=62 rr=124 rw=62 wake=62 robw=62 robr=124 cls=[0 8 0 24 6 0 24 0 0 0]"
	goldenDivContentionWide   = "cyc=169 disp=62 iss=62 com=62 rr=124 rw=62 wake=62 robw=62 robr=124 cls=[0 8 0 24 6 0 24 0 0 0]"
)

// TestDividerContentionBitExact saturates both non-pipelined divide classes
// with overlapping latencies and pins the full statistics vector on the
// narrow (one unit per class) and wide (two units per class) machines.
func TestDividerContentionBitExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		golden string
	}{
		{"narrow", Narrow(), goldenDivContentionNarrow},
		{"wide", Wide(), goldenDivContentionWide},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.cfg, nil)
			run(e, divSaturationProgram(), nil)
			if got := statsKey(e.Stats); got != tc.golden {
				t.Fatalf("divider contention stats diverged:\n got  %s\n want %s", got, tc.golden)
			}
		})
	}
}

// TestDividerContentionSerializes sanity-checks the structural hazard itself:
// with both classes saturated, the run must take at least as long as the
// slowest class's total occupancy on one unit.
func TestDividerContentionSerializes(t *testing.T) {
	e := New(Narrow(), nil)
	run(e, divSaturationProgram(), nil)
	// 24 FP divides × 14 cycles on a single non-pipelined unit.
	if e.Stats.Cycles < 24*14 {
		t.Fatalf("saturated divides finished in %d cycles, want >= %d", e.Stats.Cycles, 24*14)
	}
	w := New(Wide(), nil)
	run(w, divSaturationProgram(), nil)
	if w.Stats.Cycles >= e.Stats.Cycles {
		t.Fatalf("two units per class not faster: wide %d vs narrow %d cycles",
			w.Stats.Cycles, e.Stats.Cycles)
	}
}

// wrapDisambiguationProgram drives the store ring through several full
// wrap-arounds while loads alias pending stores: every fourth store is
// followed by a load to the same address whose data producer (a multiply
// chain) delays the store's completion, so the load must observe the
// blocking store across arbitrary ring index positions.
func wrapDisambiguationProgram(ringLen int) (prog []isa.Uop, addrs []uint64) {
	total := 3 * ringLen // three full wraps
	for i := 0; i < total; i++ {
		if i%4 == 0 {
			// Slow producer for the store data register.
			mul := isa.NewUop(isa.OpMul)
			mul.Dst[0] = isa.GPR(9)
			mul.Src[0] = isa.GPR(9)
			mul.Src[1] = isa.GPR(8)
			prog = append(prog, mul)
			addrs = append(addrs, 0)
		}
		st := isa.NewUop(isa.OpStore)
		st.Src[0] = isa.GPR(2)
		st.Src[1] = isa.GPR(9) // data from the multiply chain
		prog = append(prog, st)
		addrs = append(addrs, uint64(0x1000+(i%8)*64))
		if i%4 == 3 {
			// Aliasing load: same address as the store two slots back.
			ld := isa.NewUop(isa.OpLoad)
			ld.Dst[0] = isa.GPR(4)
			ld.Src[0] = isa.GPR(2)
			prog = append(prog, ld)
			addrs = append(addrs, uint64(0x1000+(i%8)*64))
			// And an independent load that must NOT block.
			ld2 := isa.NewUop(isa.OpLoad)
			ld2.Dst[0] = isa.GPR(5)
			ld2.Src[0] = isa.GPR(3)
			prog = append(prog, ld2)
			addrs = append(addrs, uint64(0x9000+(i%8)*64))
		}
	}
	return prog, addrs
}

const goldenWrapDisambiguation = "cyc=391 disp=672 iss=672 com=672 rr=1152 rw=288 wake=672 robw=672 robr=1344 cls=[0 0 96 0 0 0 0 192 384 0]"

// TestLoadStoreDisambiguationAtWrapBitExact pins the exact behaviour of
// load-vs-store ordering while the disambiguation ring wraps around several
// times.
func TestLoadStoreDisambiguationAtWrapBitExact(t *testing.T) {
	e := New(Narrow(), nil)
	prog, addrs := wrapDisambiguationProgram(len(e.stores))
	run(e, prog, addrs)
	if e.StoreQueueLen() != 0 {
		t.Fatalf("%d stores left in ring", e.StoreQueueLen())
	}
	if got := statsKey(e.Stats); got != goldenWrapDisambiguation {
		t.Fatalf("wrap-around disambiguation stats diverged:\n got  %s\n want %s",
			got, goldenWrapDisambiguation)
	}
}

// TestAliasingLoadOrderedAfterStoreAtWrap checks the ordering property
// directly at a wrapped ring position: the aliasing load completes only after
// its blocking store, while the independent load does not wait.
func TestAliasingLoadOrderedAfterStoreAtWrap(t *testing.T) {
	e := New(Narrow(), nil)
	ringLen := len(e.stores)

	// Fill and retire enough stores to wrap the ring indices.
	for i := 0; i < ringLen+ringLen/2; i++ {
		for !e.CanDispatch() {
			e.Cycle()
		}
		st := isa.NewUop(isa.OpStore)
		st.Src[0] = isa.GPR(1)
		st.Src[1] = isa.GPR(2)
		dispatch(e, st, uint64(i*64), true, false)
	}
	e.Drain()

	// Slow producer feeds a store; an aliasing and an independent load follow.
	mul := isa.NewUop(isa.OpMul)
	mul.Dst[0] = isa.GPR(9)
	mul.Src[0] = isa.GPR(9)
	mul.Src[1] = isa.GPR(8)
	st := isa.NewUop(isa.OpStore)
	st.Src[0] = isa.GPR(2)
	st.Src[1] = isa.GPR(9)
	ld := isa.NewUop(isa.OpLoad)
	ld.Dst[0] = isa.GPR(4)
	ld.Src[0] = isa.GPR(3)
	ind := isa.NewUop(isa.OpLoad)
	ind.Dst[0] = isa.GPR(5)
	ind.Src[0] = isa.GPR(3)

	dispatch(e, mul, 0, true, false)
	hs := dispatch(e, st, 0x4000, true, false)
	hl := dispatch(e, ld, 0x4000, true, false)
	hi := dispatch(e, ind, 0x8000, true, false)

	sDone, lDone, iDone := uint64(0), uint64(0), uint64(0)
	for e.InFlight() > 0 {
		e.Cycle()
		if sDone == 0 && e.Done(hs) {
			sDone = e.Now()
		}
		if lDone == 0 && e.Done(hl) {
			lDone = e.Now()
		}
		if iDone == 0 && e.Done(hi) {
			iDone = e.Now()
		}
	}
	if lDone <= sDone {
		t.Fatalf("aliasing load done at %d, store at %d: load bypassed pending store", lDone, sDone)
	}
	if iDone >= lDone {
		t.Fatalf("independent load (done %d) waited with the aliasing load (done %d)", iDone, lDone)
	}
}

// randomProgram builds a seeded program of n uops that exercises every issue
// decision the select logic makes: every execution class (both non-pipelined
// dividers and nops included), fused and SIMD uops whose two sources name the
// same producer, loads and stores over a small aliasing address pool, and
// flag producers feeding branches. Registers come from a small pool so
// dependency chains are dense. The address pool sets memory latency, so the
// completion order of loads varies too.
func randomProgram(seed int64, n int) (prog []isa.Uop, addrs []uint64) {
	r := rand.New(rand.NewSource(seed))
	ops := []isa.Op{
		isa.OpNop, isa.OpAdd, isa.OpAddImm, isa.OpMul,
		isa.OpFAdd, isa.OpFMul, isa.OpLoad, isa.OpLoad,
		isa.OpStore, isa.OpStore, isa.OpCmp, isa.OpBr,
		isa.OpFusedAluAlu, isa.OpFusedFP, isa.OpSimd2,
	}
	gpr := func() isa.Reg { return isa.GPR(r.Intn(8)) }
	fpr := func() isa.Reg { return isa.FPR(r.Intn(4)) }
	for i := 0; i < n; i++ {
		op := ops[r.Intn(len(ops))]
		if r.Intn(24) == 0 {
			// Divides are rare, so the dividers contend without pacing
			// the whole program.
			op = [2]isa.Op{isa.OpDiv, isa.OpFDiv}[r.Intn(2)]
		}
		u := isa.NewUop(op)
		var addr uint64
		switch op {
		case isa.OpNop:
		case isa.OpAdd, isa.OpMul, isa.OpDiv:
			u.Dst[0], u.Src[0], u.Src[1] = gpr(), gpr(), gpr()
		case isa.OpAddImm:
			u.Dst[0], u.Src[0] = gpr(), gpr()
		case isa.OpFAdd, isa.OpFMul, isa.OpFDiv:
			u.Dst[0], u.Src[0], u.Src[1] = fpr(), fpr(), fpr()
		case isa.OpLoad:
			u.Dst[0], u.Src[0] = gpr(), gpr()
			addr = uint64(0x1000 + r.Intn(16)*64)
		case isa.OpStore:
			u.Src[0], u.Src[1] = gpr(), gpr()
			addr = uint64(0x1000 + r.Intn(16)*64)
		case isa.OpCmp:
			u.Dst[0], u.Src[0], u.Src[1] = isa.RegFlags, gpr(), gpr()
		case isa.OpBr:
			u.Src[0] = isa.RegFlags
		case isa.OpFusedAluAlu, isa.OpSimd2:
			// Two sources naming one producer: two wakeup edges from it.
			s := gpr()
			u.Dst[0], u.Src[0], u.Src[1], u.Src[2] = gpr(), s, s, gpr()
			if op == isa.OpSimd2 {
				u.Dst[1], u.Src[3] = gpr(), gpr()
			}
		case isa.OpFusedFP:
			s := fpr()
			u.Dst[0], u.Src[0], u.Src[1], u.Src[2] = fpr(), s, s, fpr()
		}
		prog = append(prog, u)
		addrs = append(addrs, addr)
	}
	return prog, addrs
}

// pipeHash digests every recorded uop's issue and complete cycles.
func pipeHash(p *obs.PipeProbe) uint64 {
	h := fnv.New64a()
	p.Each(func(r *obs.UopRec) {
		fmt.Fprintf(h, "%d:%d:%d;", r.Seq, r.Issue, r.Complete)
	})
	return h.Sum64()
}

// smallROB has 24 ROB entries: 32 slots, fewer than one 64-bit word.
func smallROB() Config {
	c := Narrow()
	c.ROBSize, c.IQSize = 24, 16
	return c
}

// goldenSelectOrder was captured on the per-class ready-queue engine, before
// issue select moved to a ready bitmap over ROB slots: the full statistics
// vector plus a hash of every uop's issue and complete cycles.
var goldenSelectOrder = map[string]string{
	"narrow/seed1": "cyc=1534 disp=3000 iss=3000 com=3000 rr=5601 rw=2390 wake=3000 robw=3000 robr=6000 cls=[0 1155 165 46 168 413 62 390 403 198] pipe=5b8ba6c09e9e23b4",
	"narrow/seed2": "cyc=1797 disp=3000 iss=3000 com=3000 rr=5655 rw=2439 wake=3000 robw=3000 robr=6000 cls=[0 1126 188 55 202 418 66 372 385 188] pipe=3e74a24fe368631e",
	"narrow/seed3": "cyc=1726 disp=3000 iss=3000 com=3000 rr=5644 rw=2445 wake=3000 robw=3000 robr=6000 cls=[0 1149 187 57 190 407 64 381 370 195] pipe=7ade526975c1881a",
	"wide/seed1":   "cyc=1357 disp=3000 iss=3000 com=3000 rr=5601 rw=2390 wake=3000 robw=3000 robr=6000 cls=[0 1155 165 46 168 413 62 390 403 198] pipe=17bee15866efaa5f",
	"wide/seed2":   "cyc=1605 disp=3000 iss=3000 com=3000 rr=5655 rw=2439 wake=3000 robw=3000 robr=6000 cls=[0 1126 188 55 202 418 66 372 385 188] pipe=813eda6668593af5",
	"wide/seed3":   "cyc=1544 disp=3000 iss=3000 com=3000 rr=5644 rw=2445 wake=3000 robw=3000 robr=6000 cls=[0 1149 187 57 190 407 64 381 370 195] pipe=9c957abf6e340722",
	"rob24/seed1":  "cyc=2099 disp=3000 iss=3000 com=3000 rr=5601 rw=2390 wake=3000 robw=3000 robr=6000 cls=[0 1155 165 46 168 413 62 390 403 198] pipe=f592a1c4b16da0fa",
	"rob24/seed2":  "cyc=2232 disp=3000 iss=3000 com=3000 rr=5655 rw=2439 wake=3000 robw=3000 robr=6000 cls=[0 1126 188 55 202 418 66 372 385 188] pipe=7f4374a2857707d4",
	"rob24/seed3":  "cyc=2118 disp=3000 iss=3000 com=3000 rr=5644 rw=2445 wake=3000 robw=3000 robr=6000 cls=[0 1149 187 57 190 407 64 381 370 195] pipe=510a49f7de1840b0",
}

// TestSelectOrderLockIn pins issue select bit-exactly on seeded random
// programs longer than any ROB, so slots, the store ring and the
// select-order scan all wrap. Oldest-first order across classes, and skipping
// a class for the rest of the cycle once its units or divider are taken,
// must both hold for the goldens to match.
func TestSelectOrderLockIn(t *testing.T) {
	lat := func(addr uint64, write bool) int {
		if write {
			return 0
		}
		return int(addr>>6) % 3 * 4
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"narrow", Narrow()},
		{"wide", Wide()},
		{"rob24", smallROB()},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", tc.name, seed)
			t.Run(name, func(t *testing.T) {
				prog, addrs := randomProgram(seed, 3000)
				e := New(tc.cfg, lat)
				rec := obs.NewRecorder(obs.Options{MaxPipeUops: len(prog)})
				e.SetProbe(rec.Pipe(0))
				run(e, prog, addrs)
				got := fmt.Sprintf("%s pipe=%016x", statsKey(e.Stats), pipeHash(rec.Pipe(0)))
				if want := goldenSelectOrder[name]; got != want {
					t.Errorf("select order diverged:\n got  %s\n want %s", got, want)
				}
			})
		}
	}
}
