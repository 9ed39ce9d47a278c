package opt

import (
	"testing"

	"parrot/internal/isa"
)

func fp(op isa.Op, d, s1, s2 int) isa.Uop {
	u := isa.NewUop(op)
	u.Dst[0] = isa.FPR(d)
	u.Src[0] = isa.FPR(s1)
	u.Src[1] = isa.FPR(s2)
	return u
}

func TestFPMultiplyAddFusion(t *testing.T) {
	// fmul f0,f1,f2 ; fadd f0,f0,f3 — the FMA pattern.
	uops := []isa.Uop{
		fp(isa.OpFMul, 0, 1, 2),
		fp(isa.OpFAdd, 0, 0, 3),
	}
	orig := append([]isa.Uop(nil), uops...)
	o := New(Config{Fusion: true})
	got, res := o.OptimizeUops(uops)
	if res.Stats.AluPairsFused != 1 {
		t.Fatalf("FMA not fused: %v", got)
	}
	if got[0].Op != isa.OpFusedFP {
		t.Fatalf("fused opcode = %v", got[0].Op)
	}
	if got[0].Op.Class() != isa.ClassFPMul {
		t.Errorf("fused FP class = %v", got[0].Op.Class())
	}
	equivalent(t, orig, got, 101)
}

func TestMixedDomainPairDoesNotFuse(t *testing.T) {
	// Integer add feeding an FP add through register classes cannot fuse.
	uops := []isa.Uop{
		alu(isa.OpAdd, 3, 1, 2),
		fp(isa.OpFAdd, 0, 1, 2),
	}
	o := New(Config{Fusion: true})
	got, res := o.OptimizeUops(uops)
	if res.Stats.AluPairsFused != 0 {
		t.Fatalf("mixed-domain fusion happened: %v", got)
	}
}

func TestWindowedFusionAcrossIndependentUop(t *testing.T) {
	// Producer and consumer separated by an unrelated uop still fuse.
	uops := []isa.Uop{
		alu(isa.OpAdd, 5, 1, 2), // t = r1+r2
		alu(isa.OpOr, 9, 8, 7),  // unrelated
		alu(isa.OpXor, 5, 5, 3), // r5 = t^r3
	}
	orig := append([]isa.Uop(nil), uops...)
	o := New(Config{Fusion: true})
	got, res := o.OptimizeUops(uops)
	if res.Stats.AluPairsFused != 1 {
		t.Fatalf("windowed fusion missed: %v", got)
	}
	equivalent(t, orig, got, 102)
}

func TestWindowedFusionRejectsClobberedSource(t *testing.T) {
	// A write to the producer's source between the pair makes hoisting the
	// fused uop to the consumer slot illegal.
	uops := []isa.Uop{
		alu(isa.OpAdd, 5, 1, 2),      // t = r1+r2
		alui(isa.OpMovImm, 1, -1, 9), // clobbers r1
		alu(isa.OpXor, 5, 5, 3),      // r5 = t^r3
	}
	orig := append([]isa.Uop(nil), uops...)
	o := New(Config{Fusion: true})
	got, res := o.OptimizeUops(uops)
	if res.Stats.AluPairsFused != 0 {
		t.Fatalf("illegal fusion over clobbered source: %v", got)
	}
	equivalent(t, orig, got, 103)
}

func TestWindowedFusionRejectsIntermediateReader(t *testing.T) {
	// Someone reads the intermediate between producer and consumer: the
	// value is live, eliminating the producer would break it.
	uops := []isa.Uop{
		alu(isa.OpAdd, 5, 1, 2), // t
		alu(isa.OpOr, 9, 5, 7),  // reads t
		alu(isa.OpXor, 5, 5, 3), // overwrites t
	}
	orig := append([]isa.Uop(nil), uops...)
	o := New(Config{Fusion: true})
	got, res := o.OptimizeUops(uops)
	if res.Stats.AluPairsFused != 0 {
		t.Fatalf("fusion killed a live intermediate: %v", got)
	}
	equivalent(t, orig, got, 104)
}

func TestWindowedSimdHoist(t *testing.T) {
	// Two independent adds separated by an unrelated uop pack, hoisting
	// the second lane.
	uops := []isa.Uop{
		alu(isa.OpAdd, 3, 1, 2),
		alu(isa.OpOr, 9, 8, 7),
		alu(isa.OpAdd, 4, 5, 6),
	}
	orig := append([]isa.Uop(nil), uops...)
	o := New(Config{Simd: true})
	got, res := o.OptimizeUops(uops)
	if res.Stats.SimdPacked != 1 {
		t.Fatalf("windowed simd missed: %v", got)
	}
	equivalent(t, orig, got, 105)
}

func TestWindowedSimdRejectsHoistOverSourceWriter(t *testing.T) {
	// The second lane's source is produced between the pair: hoisting it
	// up would read a stale value.
	uops := []isa.Uop{
		alu(isa.OpAdd, 3, 1, 2),
		alui(isa.OpMovImm, 5, -1, 7), // writes second lane's source
		alu(isa.OpAdd, 4, 5, 6),
	}
	orig := append([]isa.Uop(nil), uops...)
	o := New(Config{Simd: true})
	got, res := o.OptimizeUops(uops)
	if res.Stats.SimdPacked != 0 {
		t.Fatalf("illegal simd hoist: %v", got)
	}
	equivalent(t, orig, got, 106)
}

func TestWindowedSimdRejectsHoistOverDstReader(t *testing.T) {
	// Someone between the pair reads the second lane's destination: the
	// hoisted write would reach it early.
	uops := []isa.Uop{
		alu(isa.OpAdd, 3, 1, 2),
		alu(isa.OpOr, 9, 4, 7), // reads r4 (old value)
		alu(isa.OpAdd, 4, 5, 6),
	}
	orig := append([]isa.Uop(nil), uops...)
	o := New(Config{Simd: true})
	got, res := o.OptimizeUops(uops)
	if res.Stats.SimdPacked != 0 {
		t.Fatalf("illegal simd hoist over reader: %v", got)
	}
	equivalent(t, orig, got, 107)
}

func TestAssertFoldingOnConstantCondition(t *testing.T) {
	// A flags producer over known values makes the promoted assert's
	// outcome static, so the whole chain dissolves. The test case holds
	// for test's flags (5&5 is non-zero) but not for cmp's (5 == 5).
	test := isa.NewUop(isa.OpTest)
	test.Dst[0] = isa.RegFlags
	test.Src[0], test.Src[1] = isa.GPR(1), isa.GPR(2)
	br := isa.NewUop(isa.OpBr)
	br.Src[0] = isa.RegFlags
	br.Cond, br.Taken = isa.CondNE, true
	cases := []struct {
		name  string
		chain []isa.Uop
	}{
		// movi r1,5; cmpi r1,#5; assert eq/T
		{"cmpi", append([]isa.Uop{alui(isa.OpMovImm, 1, -1, 5)}, cmpbr(1, 5, isa.CondEQ, true)...)},
		// movi r1,5; movi r2,5; test r1,r2; assert ne/T
		{"test", []isa.Uop{alui(isa.OpMovImm, 1, -1, 5), alui(isa.OpMovImm, 2, -1, 5), test, br}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			uops := append(append([]isa.Uop(nil), tc.chain...),
				alu(isa.OpAdd, 2, 3, 4)) // keeps the trace non-empty
			orig := append([]isa.Uop(nil), uops...)
			o := New(GeneralOnly())
			got, res := o.OptimizeUops(uops)
			if res.Stats.AssertsFolded != 1 {
				t.Fatalf("constant assert not folded: %v (stats %+v)", got, res.Stats)
			}
			equivalent(t, orig, got, 108)
		})
	}
}

func TestSequencingSurvivesAtExit(t *testing.T) {
	// A trace ending in a ret keeps the ret (the trace exit) even though
	// internal rets are eliminated.
	uops := []isa.Uop{
		alu(isa.OpAdd, 1, 2, 3),
		isa.NewUop(isa.OpRet),
	}
	o := New(AllOptimizations())
	got, res := o.OptimizeUops(uops)
	if res.Stats.SequencingRemoved != 0 {
		t.Fatalf("exit ret removed: %v", got)
	}
	if got[len(got)-1].Op != isa.OpRet {
		t.Fatalf("ret not last: %v", got)
	}
}

func TestOptimizerIdempotent(t *testing.T) {
	// Running the optimizer twice must not change the result further
	// (fixed point on its own output) nor break semantics.
	uops := []isa.Uop{
		alui(isa.OpMovImm, 1, -1, 7),
		alui(isa.OpAddImm, 1, 1, 3),
		alu(isa.OpAdd, 2, 1, 4),
		alu(isa.OpXor, 2, 2, 5),
	}
	uops = append(uops, cmpbr(2, 0, isa.CondNE, true)...)
	orig := append([]isa.Uop(nil), uops...)
	o := New(AllOptimizations())
	once, _ := o.OptimizeUops(append([]isa.Uop(nil), orig...))
	twice, res2 := o.OptimizeUops(append([]isa.Uop(nil), once...))
	if res2.UopsAfter > res2.UopsBefore {
		t.Fatal("second pass grew the trace")
	}
	equivalent(t, orig, once, 109)
	equivalent(t, orig, twice, 110)
}

func TestPassStatsAccumulate(t *testing.T) {
	var a, b PassStats
	a.DeadEliminated = 2
	b.DeadEliminated = 3
	b.SimdPacked = 1
	a.Add(b)
	if a.DeadEliminated != 5 || a.SimdPacked != 1 {
		t.Errorf("accumulation wrong: %+v", a)
	}
}

func TestEmptyAndTinyTraces(t *testing.T) {
	o := New(AllOptimizations())
	if got, res := o.OptimizeUops(nil); len(got) != 0 || res.UopsAfter != 0 {
		t.Error("empty trace mishandled")
	}
	one := []isa.Uop{alu(isa.OpAdd, 1, 2, 3)}
	got, _ := o.OptimizeUops(one)
	if len(got) != 1 {
		t.Errorf("single-uop trace = %v", got)
	}
}
