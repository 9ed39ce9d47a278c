package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestUopSize pins the Uop layout: the dispatch form lives in what was the
// struct's padding, so every trace, dispatch-queue slot and program slab
// pays nothing for it.
func TestUopSize(t *testing.T) {
	if got := unsafe.Sizeof(Uop{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Uop{}) = %d bytes, want 24", got)
	}
}

func TestFormOf(t *testing.T) {
	fu := NewUop(OpSimd2)
	fu.Dst[0], fu.Dst[1] = GPR(1), GPR(2)
	fu.Src[0], fu.Src[2], fu.Src[3] = GPR(3), GPR(3), GPR(4)
	ld := NewUop(OpLoad)
	ld.Dst[0], ld.Src[0] = FPR(1), GPR(12)
	st := NewUop(OpStore)
	st.Src[0], st.Src[1] = GPR(12), GPR(5)
	br := NewUop(OpBr)
	br.Src[0] = RegFlags
	for _, c := range []struct {
		u    Uop
		want Form
	}{
		{NewUop(OpNop), Form{Class: ClassNop, Issue: ClassIntALU}},
		{fu, Form{Class: ClassIntALU, Issue: ClassIntALU, Srcs: 0b1101, Dsts: 0b11}},
		{ld, Form{Class: ClassLoad, Issue: ClassLoad, Srcs: 0b1, Dsts: 0b1}},
		{st, Form{Class: ClassStore, Issue: ClassStore, Srcs: 0b11}},
		{br, Form{Class: ClassBranch, Issue: ClassBranch, Srcs: 0b1}},
	} {
		if got := FormOf(&c.u); got != c.want {
			t.Errorf("FormOf(%v) = %+v, want %+v", c.u, got, c.want)
		}
		if c.u.Form != (Form{}) {
			t.Errorf("%v: FormOf must not store the form", c.u)
		}
		c.u.Decode()
		if c.u.Form != c.want {
			t.Errorf("Decode(%v) stored %+v, want %+v", c.u, c.u.Form, c.want)
		}
	}
	// Every opcode decodes to a real issue pool, so the zero Form only
	// ever marks an undecoded uop.
	for o := Op(0); o < numOps; o++ {
		u := NewUop(o)
		if FormOf(&u).Issue == ClassNop {
			t.Errorf("%v decodes to issue class nop", o)
		}
	}
}

func TestRegClassification(t *testing.T) {
	for i := 0; i < NumGPR; i++ {
		r := GPR(i)
		if !r.IsGPR() || r.IsFP() || !r.Valid() {
			t.Errorf("GPR(%d)=%v misclassified", i, r)
		}
	}
	for i := 0; i < NumFP; i++ {
		r := FPR(i)
		if r.IsGPR() || !r.IsFP() || !r.Valid() {
			t.Errorf("FPR(%d)=%v misclassified", i, r)
		}
	}
	if RegFlags.IsGPR() || RegFlags.IsFP() || !RegFlags.Valid() {
		t.Error("flags register misclassified")
	}
	if RegNone.Valid() {
		t.Error("RegNone must not be valid")
	}
}

func TestRegStrings(t *testing.T) {
	cases := map[Reg]string{
		GPR(0): "r0", GPR(15): "r15", FPR(0): "f0", FPR(7): "f7",
		RegFlags: "flags", RegNone: "-",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestCondEval(t *testing.T) {
	cases := []struct {
		c     Cond
		flags int64
		want  bool
	}{
		{CondAlways, 0, true},
		{CondAlways, FlagZ | FlagS | FlagC, true},
		{CondEQ, FlagZ, true},
		{CondEQ, 0, false},
		{CondNE, 0, true},
		{CondNE, FlagZ, false},
		{CondLT, FlagS, true},
		{CondLT, 0, false},
		{CondGE, 0, true},
		{CondGE, FlagS, false},
		{CondLE, FlagZ, true},
		{CondLE, FlagS, true},
		{CondLE, 0, false},
		{CondGT, 0, true},
		{CondGT, FlagZ, false},
		{CondGT, FlagS, false},
		{CondULT, FlagC, true},
		{CondULT, 0, false},
		{CondUGE, 0, true},
		{CondUGE, FlagC, false},
	}
	for _, tc := range cases {
		if got := tc.c.Eval(tc.flags); got != tc.want {
			t.Errorf("%v.Eval(%#x) = %v, want %v", tc.c, tc.flags, got, tc.want)
		}
	}
}

// TestCondNegateInvolution checks negation is an involution and flips the
// evaluation for every flags value.
func TestCondNegateInvolution(t *testing.T) {
	for c := CondEQ; c < NumConds; c++ {
		if c.Negate().Negate() != c {
			t.Errorf("Negate not involutive for %v", c)
		}
		for flags := int64(0); flags < 8; flags++ {
			if c.Eval(flags) == c.Negate().Eval(flags) {
				t.Errorf("%v and %v agree on flags %#x", c, c.Negate(), flags)
			}
		}
	}
	if CondAlways.Negate() != CondAlways {
		t.Error("CondAlways must negate to itself")
	}
}

func TestOpClassesAndLatencies(t *testing.T) {
	cases := []struct {
		op    Op
		class ExecClass
	}{
		{OpNop, ClassNop},
		{OpAdd, ClassIntALU},
		{OpMovImm, ClassIntALU},
		{OpMul, ClassIntMul},
		{OpDiv, ClassIntDiv},
		{OpFAdd, ClassFPAdd},
		{OpFMov, ClassFPAdd},
		{OpFMul, ClassFPMul},
		{OpFDiv, ClassFPDiv},
		{OpLoad, ClassLoad},
		{OpStore, ClassStore},
		{OpBr, ClassBranch},
		{OpRet, ClassBranch},
		{OpAssert, ClassBranch},
		{OpFusedCmpBr, ClassBranch},
		{OpFusedAluAlu, ClassIntALU},
		{OpSimd2, ClassIntALU},
	}
	for _, tc := range cases {
		if got := tc.op.Class(); got != tc.class {
			t.Errorf("%v.Class() = %v, want %v", tc.op, got, tc.class)
		}
	}
	for c := ClassNop; c < NumExecClasses; c++ {
		if c.Latency() < 1 && c != ClassNop {
			t.Errorf("class %v latency %d < 1", c, c.Latency())
		}
	}
	if ClassIntDiv.Latency() <= ClassIntMul.Latency() {
		t.Error("divide should be slower than multiply")
	}
	if ClassLoad.Latency() <= ClassIntALU.Latency() {
		t.Error("load-hit should be slower than ALU")
	}
}

func TestOpPredicates(t *testing.T) {
	for _, op := range []Op{OpBr, OpJmp, OpJmpI, OpCall, OpRet} {
		if !op.IsCTI() {
			t.Errorf("%v should be a CTI", op)
		}
	}
	for _, op := range []Op{OpAssert, OpAdd, OpLoad, OpCmp} {
		if op.IsCTI() {
			t.Errorf("%v should not be a program CTI", op)
		}
	}
	if !OpAssert.IsBranch() || !OpBr.IsBranch() {
		t.Error("assert/br must be branch-class")
	}
	if !OpLoad.IsMem() || !OpStore.IsMem() || OpAdd.IsMem() {
		t.Error("IsMem misclassifies")
	}
	for _, op := range []Op{OpCmp, OpCmpImm, OpTest, OpFusedCmpBr} {
		if !op.WritesFlags() {
			t.Errorf("%v should write flags", op)
		}
	}
	for _, op := range []Op{OpBr, OpAssert} {
		if !op.ReadsFlags() {
			t.Errorf("%v should read flags", op)
		}
	}
	if OpAdd.WritesFlags() || OpAdd.ReadsFlags() {
		t.Error("plain ALU must not touch flags in this ISA")
	}
}

func TestNewUopClearsOperands(t *testing.T) {
	u := NewUop(OpAdd)
	for _, d := range u.Dst {
		if d != RegNone {
			t.Fatal("dst slot not cleared")
		}
	}
	for _, s := range u.Src {
		if s != RegNone {
			t.Fatal("src slot not cleared")
		}
	}
	if u.NumSrcs() != 0 || len(u.Dsts()) != 0 || len(u.Srcs()) != 0 {
		t.Fatal("operand accessors must see empty uop")
	}
}

func TestUopOperandAccessors(t *testing.T) {
	u := NewUop(OpAdd)
	u.Dst[0] = GPR(3)
	u.Src[0] = GPR(1)
	u.Src[1] = GPR(2)
	if got := u.Dsts(); len(got) != 1 || got[0] != GPR(3) {
		t.Errorf("Dsts() = %v", got)
	}
	if got := u.Srcs(); len(got) != 2 || got[0] != GPR(1) || got[1] != GPR(2) {
		t.Errorf("Srcs() = %v", got)
	}
	if u.NumSrcs() != 2 {
		t.Errorf("NumSrcs() = %d, want 2", u.NumSrcs())
	}
}

func TestUopString(t *testing.T) {
	u := NewUop(OpAdd)
	u.Dst[0] = GPR(3)
	u.Src[0] = GPR(1)
	u.Src[1] = GPR(2)
	if got := u.String(); got != "add r3 <- r1 r2" {
		t.Errorf("String() = %q", got)
	}
	b := NewUop(OpBr)
	b.Cond = CondEQ
	b.Src[0] = RegFlags
	b.Taken = true
	b.Imm = 64
	if got := b.String(); got != "br.eq/T flags #64" {
		t.Errorf("String() = %q", got)
	}
}

func TestInstComplexity(t *testing.T) {
	mk := func(n int) *Inst {
		in := &Inst{PC: 0x1000, Size: 4, Kind: KindSimple}
		for i := 0; i < n; i++ {
			in.Uops = append(in.Uops, NewUop(OpAdd))
		}
		return in
	}
	if mk(1).IsComplex() || mk(2).IsComplex() {
		t.Error("1-2 uop instructions must be simple-decodable")
	}
	if !mk(3).IsComplex() || !mk(4).IsComplex() {
		t.Error(">2 uop instructions must be complex")
	}
	in := mk(2)
	if in.FallThrough() != 0x1004 {
		t.Errorf("FallThrough = %#x", in.FallThrough())
	}
	if in.NumUops() != 2 {
		t.Errorf("NumUops = %d", in.NumUops())
	}
}

// Property: Eval is a pure function of the three flag bits only.
func TestCondEvalIgnoresHighBits(t *testing.T) {
	f := func(c uint8, flags int64) bool {
		cond := Cond(c % uint8(NumConds))
		return cond.Eval(flags) == cond.Eval(flags&7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringersTotal(t *testing.T) {
	for o := Op(0); o < Op(NumOps); o++ {
		if o.String() == "" {
			t.Errorf("opcode %d has empty name", o)
		}
	}
	for k := InstKind(0); k < NumInstKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	for c := ExecClass(0); c < NumExecClasses; c++ {
		if c.String() == "" {
			t.Errorf("class %d has empty name", c)
		}
	}
}
