package isa

import (
	"fmt"
	"strings"
)

// MaxDst and MaxSrc bound the operand counts of a single uop. Two
// destinations and four sources accommodate the packed uops produced by
// SIMDification (two independent ALU operations in one uop).
const (
	MaxDst = 2
	MaxSrc = 4
)

// Uop is a single micro-operation. Uops are values; the simulator copies
// them freely. Operand slots not in use hold RegNone.
//
// For trace uops, Taken records the direction embedded in the trace for
// branch-class uops (the direction the trace asserts).
//
// Form caches the uop's dispatch form (see Form). It lives in what would
// otherwise be padding, so a Uop stays 24 bytes (TestUopSize).
type Uop struct {
	Op   Op
	Cond Cond
	Dst  [MaxDst]Reg
	Src  [MaxSrc]Reg
	Imm  int64

	// SubOps holds the constituent operations of a packed uop.
	// For OpFusedAluAlu: tmp = SubOps[0](Src0, Src1); Dst0 = SubOps[1](tmp, Src2).
	// For OpSimd2: Dst0 = SubOps[0](Src0, Src1); Dst1 = SubOps[0](Src2, Src3).
	// At most one sub-op may be an immediate form; it consumes Imm.
	SubOps [2]Op

	// Taken is the branch direction embedded during trace construction.
	Taken bool

	// Form is the dispatch form decoded from Op, Src and Dst. Whoever
	// writes a uop that can reach an execution engine refreshes it with
	// Decode; the zero Form marks a uop that was never decoded.
	Form Form
}

// Form is a uop's pre-decoded dispatch form: everything the rename and
// dispatch stage of the out-of-order engine derives from the uop. It is
// computed once by FormOf when a uop is written — when a program is
// generated, when a trace file is read, when a trace is optimized; a built
// trace copies its instructions' forms — instead of on every one of the
// uop's dynamic dispatches.
// A memory uop's kind is its class (ClassLoad or ClassStore).
type Form struct {
	Class ExecClass // execution class: latency and unit statistics
	Issue ExecClass // unit pool the uop competes for; never ClassNop
	Srcs  uint8     // bit k set when Src[k] names a register
	Dsts  uint8     // bit k set when Dst[k] names a register
}

// FormOf decodes u's dispatch form. It is the one place the form is
// computed; Decode stores its result in the uop.
func FormOf(u *Uop) Form {
	f := Form{Class: u.Op.Class()}
	f.Issue = f.Class
	if f.Issue == ClassNop {
		f.Issue = ClassIntALU // nops borrow the integer ALUs
	}
	f.Srcs = live(u.Src[0]) | live(u.Src[1])<<1 | live(u.Src[2])<<2 | live(u.Src[3])<<3
	f.Dsts = live(u.Dst[0]) | live(u.Dst[1])<<1
	return f
}

// live is 1 when r names a register (a flag, not a branch, on amd64).
func live(r Reg) uint8 {
	if r != RegNone {
		return 1
	}
	return 0
}

// Decode refreshes u's cached dispatch form.
func (u *Uop) Decode() { u.Form = FormOf(u) }

// Decode refreshes the dispatch form of every uop in the slice.
func Decode(uops []Uop) {
	for i := range uops {
		uops[i].Decode()
	}
}

// NewUop returns a uop with all operand slots cleared.
func NewUop(op Op) Uop {
	u := Uop{Op: op}
	for i := range u.Dst {
		u.Dst[i] = RegNone
	}
	for i := range u.Src {
		u.Src[i] = RegNone
	}
	return u
}

// Dsts returns the populated destination registers.
func (u *Uop) Dsts() []Reg {
	out := make([]Reg, 0, MaxDst)
	for _, d := range u.Dst {
		if d != RegNone {
			out = append(out, d)
		}
	}
	return out
}

// Srcs returns the populated source registers.
func (u *Uop) Srcs() []Reg {
	out := make([]Reg, 0, MaxSrc)
	for _, s := range u.Src {
		if s != RegNone {
			out = append(out, s)
		}
	}
	return out
}

// NumSrcs returns the count of populated source operands.
func (u *Uop) NumSrcs() int {
	n := 0
	for _, s := range u.Src {
		if s != RegNone {
			n++
		}
	}
	return n
}

// String renders the uop in a compact assembly-like syntax.
func (u Uop) String() string {
	var b strings.Builder
	b.WriteString(u.Op.String())
	if u.Op == OpBr || u.Op == OpAssert || u.Op == OpFusedCmpBr {
		fmt.Fprintf(&b, ".%s", u.Cond)
		if u.Taken {
			b.WriteString("/T")
		} else {
			b.WriteString("/NT")
		}
	}
	if u.Op == OpFusedAluAlu || u.Op == OpFusedFP {
		fmt.Fprintf(&b, "[%s;%s]", u.SubOps[0], u.SubOps[1])
	} else if u.Op == OpSimd2 {
		fmt.Fprintf(&b, "[%s]", u.SubOps[0])
	}
	first := true
	for _, d := range u.Dst {
		if d == RegNone {
			continue
		}
		if first {
			b.WriteString(" ")
			first = false
		} else {
			b.WriteString(",")
		}
		b.WriteString(d.String())
	}
	if !first {
		b.WriteString(" <-")
	}
	for _, s := range u.Src {
		if s == RegNone {
			continue
		}
		fmt.Fprintf(&b, " %s", s)
	}
	if u.Op.HasImm() {
		fmt.Fprintf(&b, " #%d", u.Imm)
	}
	return b.String()
}

// InstKind classifies macro-instructions for fetch/decode modelling.
type InstKind uint8

// Macro-instruction kinds.
const (
	KindSimple  InstKind = iota // 1 uop, decodable on any decoder
	KindComplex                 // >1 uop, requires the complex decoder slot
	KindBranch                  // ends a basic block (conditional)
	KindJump                    // unconditional direct jump
	KindJumpInd                 // indirect jump
	KindCall
	KindRet
	NumInstKinds
)

var kindNames = [...]string{"simple", "complex", "branch", "jump", "jumpind", "call", "ret"}

// String implements fmt.Stringer.
func (k InstKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind?%d", int(k))
}

// IsCTI reports whether the kind transfers control.
func (k InstKind) IsCTI() bool { return k >= KindBranch }

// Inst is a static macro-instruction: a variable-length IA32-like
// instruction that decodes into Uops. Instances are shared between all
// dynamic occurrences; dynamic state (branch outcome, memory address)
// travels in workload.DynInst.
type Inst struct {
	PC   uint64 // static address
	Size uint8  // encoded length in bytes, 1..15
	Kind InstKind

	// MemUops counts the memory uops among Uops, decoded with them
	// (Inst.Decode).
	MemUops uint8

	Uops []Uop

	// Target is the static taken-target for direct CTIs (branch/jump/call).
	Target uint64
}

// Decode refreshes the dispatch form of every uop and the memory-uop
// count. Every writer of an instruction (the program generator, the
// trace-file reader) calls it once the uops are final.
func (in *Inst) Decode() {
	in.MemUops = 0
	for k := range in.Uops {
		u := &in.Uops[k]
		u.Decode()
		if u.Op.IsMem() {
			in.MemUops++
		}
	}
}

// NumUops returns the decoded uop count.
func (in *Inst) NumUops() int { return len(in.Uops) }

// IsComplex reports whether the instruction needs the complex decoder:
// instructions decoding into more than two uops, mirroring the classic
// 4-1-1 style decoder asymmetry of IA32 front-ends.
func (in *Inst) IsComplex() bool { return len(in.Uops) > 2 }

// FallThrough returns the address of the next sequential instruction.
func (in *Inst) FallThrough() uint64 { return in.PC + uint64(in.Size) }

// String renders the instruction header and its uops.
func (in *Inst) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%#x[%d] %s:", in.PC, in.Size, in.Kind)
	for i := range in.Uops {
		fmt.Fprintf(&b, " {%s}", in.Uops[i])
	}
	return b.String()
}
