package emu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parrot/internal/isa"
)

func alu(op isa.Op, d, s1, s2 int) isa.Uop {
	u := isa.NewUop(op)
	u.Dst[0] = isa.GPR(d)
	u.Src[0] = isa.GPR(s1)
	if s2 >= 0 {
		u.Src[1] = isa.GPR(s2)
	}
	return u
}

func alui(op isa.Op, d, s1 int, imm int64) isa.Uop {
	u := isa.NewUop(op)
	u.Dst[0] = isa.GPR(d)
	if s1 >= 0 {
		u.Src[0] = isa.GPR(s1)
	}
	u.Imm = imm
	return u
}

func TestALUSemantics(t *testing.T) {
	s := NewState()
	s.Regs[1] = 10
	s.Regs[2] = 3
	prog := []isa.Uop{
		alu(isa.OpAdd, 3, 1, 2),  // r3 = 13
		alu(isa.OpSub, 4, 1, 2),  // r4 = 7
		alu(isa.OpAnd, 5, 1, 2),  // r5 = 2
		alu(isa.OpOr, 6, 1, 2),   // r6 = 11
		alu(isa.OpXor, 7, 1, 2),  // r7 = 9
		alu(isa.OpShl, 8, 1, 2),  // r8 = 80
		alu(isa.OpShr, 9, 1, 2),  // r9 = 1
		alu(isa.OpMul, 10, 1, 2), // r10 = 30
		alu(isa.OpDiv, 11, 1, 2), // r11 = 3
		alui(isa.OpMovImm, 12, -1, -42),
		alui(isa.OpAddImm, 13, 1, 5), // r13 = 15
	}
	if _, err := s.Run(prog); err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{3: 13, 4: 7, 5: 2, 6: 11, 7: 9, 8: 80, 9: 1, 10: 30, 11: 3, 12: -42, 13: 15}
	for r, v := range want {
		if s.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, s.Regs[r], v)
		}
	}
}

func TestDivByZeroIsTotal(t *testing.T) {
	s := NewState()
	s.Regs[1] = 99
	u := alu(isa.OpDiv, 2, 1, 3) // r3 == 0
	if _, err := s.Step(&u); err != nil {
		t.Fatal(err)
	}
	if s.Regs[2] != 0 {
		t.Errorf("div by zero = %d, want 0", s.Regs[2])
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	s := NewState()
	s.Regs[1] = 0x100
	s.Regs[2] = 777
	st := isa.NewUop(isa.OpStore)
	st.Src[0] = isa.GPR(1)
	st.Src[1] = isa.GPR(2)
	st.Imm = 8
	ld := isa.NewUop(isa.OpLoad)
	ld.Dst[0] = isa.GPR(3)
	ld.Src[0] = isa.GPR(1)
	ld.Imm = 8
	if _, err := s.Run([]isa.Uop{st, ld}); err != nil {
		t.Fatal(err)
	}
	if s.Regs[3] != 777 {
		t.Errorf("load = %d, want 777", s.Regs[3])
	}
	if s.Load(0x108) != 777 {
		t.Error("memory cell missing")
	}
}

func TestStoreZeroNormalizes(t *testing.T) {
	s := NewState()
	s.Store(64, 5)
	s.Store(64, 0)
	if len(s.Mem) != 0 {
		t.Error("storing zero must remove the cell")
	}
	o := NewState()
	if !s.Equal(o) {
		t.Error("state with erased zero cell must equal fresh state")
	}
}

func TestCompareFlags(t *testing.T) {
	cases := []struct {
		a, b int64
		want int64
	}{
		{5, 5, isa.FlagZ},
		{3, 5, isa.FlagS | isa.FlagC},
		{5, 3, 0},
		{-1, 1, isa.FlagS}, // signed less, unsigned greater
		{1, -1, isa.FlagC}, // signed greater, unsigned less
	}
	for _, tc := range cases {
		if got := CompareFlags(tc.a, tc.b); got != tc.want {
			t.Errorf("CompareFlags(%d,%d) = %#x, want %#x", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestTestFlags(t *testing.T) {
	cases := []struct {
		a, b int64
		want int64
	}{
		{0b1100, 0b0011, isa.FlagZ}, // disjoint bits
		{0b1100, 0b0110, 0},         // one common bit, positive
		{0, -1, isa.FlagZ},
		{-1, -1, isa.FlagS},            // sign bit survives the and
		{-1, math.MaxInt64, 0},         // sign bit masked off
		{math.MinInt64, -8, isa.FlagS}, // only the sign bit in common
	}
	for _, tc := range cases {
		if got := TestFlags(tc.a, tc.b); got != tc.want {
			t.Errorf("TestFlags(%d,%d) = %#x, want %#x", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCmpBranchInteraction(t *testing.T) {
	s := NewState()
	s.Regs[1] = 7
	cmp := isa.NewUop(isa.OpCmpImm)
	cmp.Src[0] = isa.GPR(1)
	cmp.Imm = 7
	cmp.Dst[0] = isa.RegFlags
	if _, err := s.Step(&cmp); err != nil {
		t.Fatal(err)
	}
	if !isa.CondEQ.Eval(s.Regs[isa.RegFlags]) {
		t.Error("CondEQ should hold after cmp 7,7")
	}
	ok := isa.NewUop(isa.OpAssert)
	ok.Cond = isa.CondEQ
	ok.Taken = true
	ok.Src[0] = isa.RegFlags
	res, err := s.Step(&ok)
	if err != nil || res.AssertFailed {
		t.Errorf("assert eq/T should pass: %v %v", res, err)
	}
	bad := ok
	bad.Taken = false
	res, err = s.Step(&bad)
	if err != nil || !res.AssertFailed {
		t.Errorf("assert eq/NT should fail: %v %v", res, err)
	}
}

func TestFusedCmpBr(t *testing.T) {
	s := NewState()
	s.Regs[1] = 2
	s.Regs[2] = 9
	u := isa.NewUop(isa.OpFusedCmpBr)
	u.Src[0] = isa.GPR(1)
	u.Src[1] = isa.GPR(2)
	u.Dst[0] = isa.RegFlags
	u.Cond = isa.CondLT
	u.Taken = true
	res, err := s.Step(&u)
	if err != nil || res.AssertFailed {
		t.Fatalf("fused cmpbr lt/T on (2,9) must pass: %v %v", res, err)
	}
	if s.Regs[isa.RegFlags] != CompareFlags(2, 9) {
		t.Error("fused cmpbr must write flags like cmp")
	}
}

func TestFusedAluAlu(t *testing.T) {
	// r4 = (r1 + r2) ^ r3
	s := NewState()
	s.Regs[1], s.Regs[2], s.Regs[3] = 6, 7, 5
	u := isa.NewUop(isa.OpFusedAluAlu)
	u.SubOps = [2]isa.Op{isa.OpAdd, isa.OpXor}
	u.Dst[0] = isa.GPR(4)
	u.Src[0] = isa.GPR(1)
	u.Src[1] = isa.GPR(2)
	u.Src[2] = isa.GPR(3)
	if _, err := s.Step(&u); err != nil {
		t.Fatal(err)
	}
	if want := int64((6 + 7) ^ 5); s.Regs[4] != want {
		t.Errorf("fused = %d, want %d", s.Regs[4], want)
	}
}

func TestSimd2(t *testing.T) {
	// r5 = r1+r2; r6 = r3+r4 packed in one uop.
	s := NewState()
	s.Regs[1], s.Regs[2], s.Regs[3], s.Regs[4] = 1, 2, 30, 40
	u := isa.NewUop(isa.OpSimd2)
	u.SubOps[0] = isa.OpAdd
	u.Dst[0], u.Dst[1] = isa.GPR(5), isa.GPR(6)
	u.Src[0], u.Src[1], u.Src[2], u.Src[3] = isa.GPR(1), isa.GPR(2), isa.GPR(3), isa.GPR(4)
	if _, err := s.Step(&u); err != nil {
		t.Fatal(err)
	}
	if s.Regs[5] != 3 || s.Regs[6] != 70 {
		t.Errorf("simd2 = (%d,%d), want (3,70)", s.Regs[5], s.Regs[6])
	}
}

// Property: a fused pair behaves exactly like the two constituent uops.
func TestFusedEquivalenceProperty(t *testing.T) {
	ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor}
	f := func(a, b, c int64, i, j uint8) bool {
		op1 := ops[int(i)%len(ops)]
		op2 := ops[int(j)%len(ops)]

		s1 := NewState()
		s1.Regs[1], s1.Regs[2], s1.Regs[3] = a, b, c
		seq := []isa.Uop{alu(op1, 9, 1, 2), alu(op2, 4, 9, 3)}
		if _, err := s1.Run(seq); err != nil {
			return false
		}

		s2 := NewState()
		s2.Regs[1], s2.Regs[2], s2.Regs[3] = a, b, c
		u := isa.NewUop(isa.OpFusedAluAlu)
		u.SubOps = [2]isa.Op{op1, op2}
		u.Dst[0] = isa.GPR(4)
		u.Src[0], u.Src[1], u.Src[2] = isa.GPR(1), isa.GPR(2), isa.GPR(3)
		if _, err := s2.Step(&u); err != nil {
			return false
		}
		return s1.Regs[4] == s2.Regs[4]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := RandState(rng)
	c := s.Clone()
	if !s.Equal(c) || s.Diff(c) != "" {
		t.Fatal("clone must equal original")
	}
	c.Regs[3]++
	if s.Equal(c) {
		t.Fatal("register change must break equality")
	}
	if s.Diff(c) == "" {
		t.Fatal("Diff must report register change")
	}
	c = s.Clone()
	c.Store(0xdead0, 1)
	if s.Equal(c) || s.Diff(c) == "" {
		t.Fatal("memory change must break equality")
	}
}

// Property: Run is deterministic — same program, same initial state, same
// final state.
func TestRunDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randProg(rng, 40)
		s1 := RandState(rand.New(rand.NewSource(seed + 1)))
		s2 := s1.Clone()
		if _, err := s1.Run(prog); err != nil {
			return false
		}
		if _, err := s2.Run(prog); err != nil {
			return false
		}
		return s1.Equal(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// randProg builds a random but well-formed straight-line program.
func randProg(rng *rand.Rand, n int) []isa.Uop {
	ops := []isa.Op{
		isa.OpMov, isa.OpMovImm, isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpAddImm, isa.OpMul, isa.OpLoad, isa.OpStore,
		isa.OpCmp, isa.OpCmpImm,
	}
	prog := make([]isa.Uop, 0, n)
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		u := isa.NewUop(op)
		switch op {
		case isa.OpMovImm:
			u.Dst[0] = isa.GPR(rng.Intn(16))
			u.Imm = rng.Int63n(1000)
		case isa.OpMov:
			u.Dst[0] = isa.GPR(rng.Intn(16))
			u.Src[0] = isa.GPR(rng.Intn(16))
		case isa.OpAddImm:
			u.Dst[0] = isa.GPR(rng.Intn(16))
			u.Src[0] = isa.GPR(rng.Intn(16))
			u.Imm = rng.Int63n(100)
		case isa.OpLoad:
			u.Dst[0] = isa.GPR(rng.Intn(16))
			u.Src[0] = isa.GPR(rng.Intn(16))
			u.Imm = rng.Int63n(256) * 8
		case isa.OpStore:
			u.Src[0] = isa.GPR(rng.Intn(16))
			u.Src[1] = isa.GPR(rng.Intn(16))
			u.Imm = rng.Int63n(256) * 8
		case isa.OpCmp:
			u.Dst[0] = isa.RegFlags
			u.Src[0] = isa.GPR(rng.Intn(16))
			u.Src[1] = isa.GPR(rng.Intn(16))
		case isa.OpCmpImm:
			u.Dst[0] = isa.RegFlags
			u.Src[0] = isa.GPR(rng.Intn(16))
			u.Imm = rng.Int63n(100)
		default:
			u.Dst[0] = isa.GPR(rng.Intn(16))
			u.Src[0] = isa.GPR(rng.Intn(16))
			u.Src[1] = isa.GPR(rng.Intn(16))
		}
		prog = append(prog, u)
	}
	return prog
}

func TestFPOpsUseFPRegs(t *testing.T) {
	s := NewState()
	s.Regs[isa.FPR(0)] = 4
	s.Regs[isa.FPR(1)] = 6
	u := isa.NewUop(isa.OpFMul)
	u.Dst[0] = isa.FPR(2)
	u.Src[0] = isa.FPR(0)
	u.Src[1] = isa.FPR(1)
	if _, err := s.Step(&u); err != nil {
		t.Fatal(err)
	}
	if s.Regs[isa.FPR(2)] != 24 {
		t.Errorf("fmul = %d, want 24", s.Regs[isa.FPR(2)])
	}
}

func TestBranchUopsHaveNoStateEffect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := RandState(rng)
	before := s.Clone()
	for _, op := range []isa.Op{isa.OpJmp, isa.OpJmpI, isa.OpCall, isa.OpRet, isa.OpBr, isa.OpNop} {
		u := isa.NewUop(op)
		if op == isa.OpBr {
			u.Src[0] = isa.RegFlags
			u.Cond = isa.CondNE
		}
		if op == isa.OpJmpI {
			u.Src[0] = isa.GPR(3)
		}
		if _, err := s.Step(&u); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Equal(before) {
		t.Errorf("control uops changed state: %s", before.Diff(s))
	}
}
