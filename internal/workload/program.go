package workload

import (
	"math/rand"
	"sync"

	"parrot/internal/isa"
)

// TermKind describes how a basic block transfers control.
type TermKind uint8

// Block terminators.
const (
	TermFall     TermKind = iota // no CTI; flows into Fall
	TermCond                     // conditional branch: Taken or Fall
	TermJmp                      // unconditional jump to Taken
	TermIndJmp                   // indirect jump (dynamic target = Taken)
	TermCall                     // call Callee, then continue at Fall
	TermRet                      // return to caller
	TermLoopBack                 // conditional backward branch: Taken = loop head
)

// Block is a synthesized basic block.
type Block struct {
	ID int

	// Insts is the block's run of the program's instruction slab: every
	// instruction of a program, and every uop, lives in one right-sized
	// array laid out in address order.
	Insts []isa.Inst

	// MemStream parallels Insts: the address-stream id of each memory
	// instruction, or -1.
	MemStream []int32

	Term   TermKind
	Taken  *Block // taken target (loop head for TermLoopBack)
	Fall   *Block // fall-through successor
	Callee *Proc

	// Branch dynamics for TermCond.
	Bias    float64 // probability of taking the branch
	Pattern bool    // follows a learnable period-2 pattern instead of Bias
}

// PC returns the address of the block's first instruction.
func (b *Block) PC() uint64 {
	if len(b.Insts) == 0 {
		return 0
	}
	return b.Insts[0].PC
}

// Proc is a callable procedure: a linear chain of blocks ending in TermRet.
type Proc struct {
	ID     int
	Blocks []*Block
}

// Loop is a hot loop: Body[0] is the header; the last body block ends with a
// backward conditional branch to the header.
type Loop struct {
	ID      int
	Body    []*Block
	TripMin int
	TripMax int
	Weight  float64 // zipf popularity weight
}

// Program is the synthesized static program for one application.
type Program struct {
	Prof  Profile
	Loops []*Loop
	Cold  []*Block // cold-region blocks, walked in chains
	Procs []*Proc  // leaf procedures callable from hot and cold code

	blocks   []*Block
	nStreams int
}

// Blocks returns every block of the program.
func (p *Program) Blocks() []*Block { return p.blocks }

// NumStreams returns the number of distinct memory address streams.
func (p *Program) NumStreams() int { return p.nStreams }

// StaticInsts counts the static instructions of the program.
func (p *Program) StaticInsts() int {
	n := 0
	for _, b := range p.blocks {
		n += len(b.Insts)
	}
	return n
}

// gen carries generator state during program synthesis.
type gen struct {
	prof    Profile
	rng     *rand.Rand
	nextID  int
	streams int

	recent   recentRegs // recently written GPRs, for dependency shaping
	recentFP recentRegs

	// Instructions in generation order, their uops, and each block's share
	// of them (indexed by block ID). A block's terminator is often
	// generated long after its body, so layout copies both into the
	// program's slabs in address order once every count is known.
	drafts []draft
	uops   []isa.Uop
	spans  []span
}

// genPool recycles generator state, so the scratch drafts of one
// generation are the next one's: a program allocates its slabs, blocks and
// their lists, and nothing per instruction.
var genPool = sync.Pool{New: func() any { return new(gen) }}

// reset prepares g to synthesize prof's program, keeping its scratch
// storage. The rng is reseeded to the state rand.New(rand.NewSource(seed))
// starts in.
func (g *gen) reset(prof Profile) {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(prof.Seed))
	} else {
		g.rng.Seed(prof.Seed)
	}
	*g = gen{prof: prof, rng: g.rng,
		drafts: g.drafts[:0], uops: g.uops[:0], spans: g.spans[:0]}
}

// draft is an instruction under construction: its uops are a range of
// gen.uops, which is still growing.
type draft struct {
	kind   isa.InstKind
	stream int32 // memory address stream, or -1
	lo, n  int32 // uops gen.uops[lo:lo+n]
}

// span locates one block's drafts: the body genBlock emitted back to back,
// and the terminator appended later, if any.
type span struct {
	lo, hi int32 // body drafts[lo:hi]
	term   int32 // terminator draft, or -1
}

// recentRegs is a short history of written registers, oldest first, kept
// in a fixed array so recording a write never allocates.
type recentRegs struct {
	r [6]isa.Reg
	n int
}

// add records r, dropping the oldest entry once max are held.
func (h *recentRegs) add(r isa.Reg, max int) {
	if h.n == max {
		copy(h.r[:], h.r[1:h.n])
		h.n--
	}
	h.r[h.n] = r
	h.n++
}

// Generate synthesizes the static program for a profile. The result is
// deterministic in the profile (including its seed).
func Generate(prof Profile) *Program {
	g := genPool.Get().(*gen)
	defer genPool.Put(g)
	g.reset(prof)
	p := &Program{Prof: prof}

	// Leaf procedures shared by hot loops.
	nHotProcs := maxInt(2, prof.NumLoops/3)
	for i := 0; i < nHotProcs; i++ {
		p.Procs = append(p.Procs, g.genProc(p, true))
	}

	// Hot loops with zipf popularity.
	for i := 0; i < prof.NumLoops; i++ {
		p.Loops = append(p.Loops, g.genLoop(p, i, p.Procs[:nHotProcs]))
	}

	// Cold leaf procedures.
	nColdProcs := maxInt(2, prof.ColdBlocks/100)
	coldProcs := make([]*Proc, 0, nColdProcs)
	for i := 0; i < nColdProcs; i++ {
		pr := g.genProc(p, false)
		coldProcs = append(coldProcs, pr)
		p.Procs = append(p.Procs, pr)
	}

	// Cold region.
	for i := 0; i < prof.ColdBlocks; i++ {
		b := g.genBlock(p, false, g.intBetween(prof.BlockInsts))
		p.Cold = append(p.Cold, b)
	}
	// Wire cold blocks into implicit chains: terminators are assigned when
	// walked; statically give each a biased conditional or jump forward.
	for i, b := range p.Cold {
		next := p.Cold[(i+1)%len(p.Cold)]
		skip := p.Cold[(i+2)%len(p.Cold)]
		switch r := g.rng.Float64(); {
		case r < 0.45:
			g.terminate(b, TermCond, skip, next, -1, g.rng.Float64() < prof.CondPattern)
		case r < 0.68:
			g.terminate(b, TermJmp, next, nil, 0, false)
		case r < 0.70:
			g.terminate(b, TermIndJmp, next, nil, 0, false)
		case r < 0.80:
			b.Callee = coldProcs[g.rng.Intn(len(coldProcs))]
			g.terminate(b, TermCall, nil, next, 0, false)
		default:
			b.Term = TermFall
			b.Fall = next
		}
	}

	p.nStreams = g.streams
	g.layout(p)
	return p
}

// genLoop builds one hot loop.
func (g *gen) genLoop(p *Program, rank int, procs []*Proc) *Loop {
	prof := g.prof
	l := &Loop{
		ID:      rank,
		TripMin: g.intBetween(prof.TripCount),
		Weight:  1 / float64(rank+1), // zipf(1)
	}
	l.TripMax = l.TripMin + g.rng.Intn(maxInt(1, l.TripMin/2)+1)

	n := g.intBetween(prof.LoopBlocks)
	body := make([]*Block, n)
	for i := range body {
		body[i] = g.genBlock(p, true, g.intBetween(prof.BlockInsts))
	}
	// Wire the body: optional hammock (block i conditionally skips i+1),
	// optional call, fall-through otherwise; last block loops back.
	for i := 0; i < n-1; i++ {
		b := body[i]
		switch {
		case i+2 < n && g.rng.Float64() < prof.HammockProb:
			g.terminate(b, TermCond, body[i+2], body[i+1], g.drawBiasHot(), g.rng.Float64() < prof.CondPattern)
		case g.rng.Float64() < prof.CallProb && len(procs) > 0:
			b.Callee = procs[g.rng.Intn(len(procs))]
			g.terminate(b, TermCall, nil, body[i+1], 0, false)
		default:
			b.Term = TermFall
			b.Fall = body[i+1]
		}
	}
	g.terminate(body[n-1], TermLoopBack, body[0], nil, 0, false)
	l.Body = body
	return l
}

// genProc builds a small leaf procedure (1-2 blocks ending in ret).
func (g *gen) genProc(p *Program, hot bool) *Proc {
	pr := &Proc{ID: g.nextID}
	n := 1 + g.rng.Intn(2)
	for i := 0; i < n; i++ {
		sz := maxInt(2, g.intBetween(g.prof.BlockInsts)/2)
		b := g.genBlock(p, hot, sz)
		if i < n-1 {
			b.Term = TermFall
		} else {
			g.terminate(b, TermRet, nil, nil, 0, false)
		}
		pr.Blocks = append(pr.Blocks, b)
	}
	for i := 0; i+1 < n; i++ {
		pr.Blocks[i].Fall = pr.Blocks[i+1]
	}
	return pr
}

// drawBias draws a per-branch direction bias: a CondHardFrac minority of
// branches are near-random; the rest are heavily biased in a random
// polarity, as in real programs where a few hard branches dominate the
// misprediction rate.
func (g *gen) drawBias() float64 { return g.drawBiasFrac(g.prof.CondHardFrac) }

// drawBiasHot draws a bias for branches inside hot loops, which the paper
// observes are markedly more regular and predictable than cold code (§2.1).
func (g *gen) drawBiasHot() float64 { return g.drawBiasFrac(g.prof.CondHardFrac * 0.3) }

func (g *gen) drawBiasFrac(hardFrac float64) float64 {
	var bias float64
	if g.rng.Float64() < hardFrac {
		bias = 0.5 + 0.2*g.rng.Float64() // hard
	} else {
		span := 0.995 - g.prof.CondBias
		bias = g.prof.CondBias + span*g.rng.Float64() // easy
	}
	if g.rng.Float64() < 0.5 {
		bias = 1 - bias
	}
	return bias
}

// terminate appends the terminator instruction for the given kind and links
// successors.
func (g *gen) terminate(b *Block, kind TermKind, taken, fall *Block, bias float64, pattern bool) {
	b.Term = kind
	b.Taken = taken
	b.Fall = fall
	b.Bias = bias
	if kind == TermCond && b.Bias < 0 {
		b.Bias = g.drawBias()
	}
	b.Pattern = pattern

	switch kind {
	case TermCond, TermLoopBack:
		// cmp + br macro-instruction.
		cmp := isa.NewUop(isa.OpCmpImm)
		cmp.Dst[0] = isa.RegFlags
		cmp.Src[0] = g.srcGPR()
		cmp.Imm = int64(g.rng.Intn(64))
		br := isa.NewUop(isa.OpBr)
		br.Src[0] = isa.RegFlags
		br.Cond = isa.Cond(1 + g.rng.Intn(int(isa.NumConds)-1))
		g.spans[b.ID].term = g.draft(isa.KindBranch, -1, cmp, br)
	case TermJmp:
		g.spans[b.ID].term = g.draft(isa.KindJump, -1, isa.NewUop(isa.OpJmp))
	case TermIndJmp:
		j := isa.NewUop(isa.OpJmpI)
		j.Src[0] = g.srcGPR()
		g.spans[b.ID].term = g.draft(isa.KindJumpInd, -1, j)
	case TermCall:
		g.spans[b.ID].term = g.draft(isa.KindCall, -1, isa.NewUop(isa.OpCall))
	case TermRet:
		g.spans[b.ID].term = g.draft(isa.KindRet, -1, isa.NewUop(isa.OpRet))
	}
}

func (g *gen) intBetween(r [2]int) int {
	if r[1] <= r[0] {
		return r[0]
	}
	return r[0] + g.rng.Intn(r[1]-r[0]+1)
}

// Register convention of the synthesized code: r0..r11 are scratch
// (frequently written), r12..r15 are long-lived invariants — base pointers,
// loop-invariant values and constants that are read often but essentially
// never overwritten inside hot code. Reads of invariant registers have no
// producer in flight, which is where real programs get their instruction-
// level parallelism; a generator without them makes every register hot and
// collapses all code onto accidental dependency chains.
const (
	numScratchGPR = 12
	numScratchFP  = 10
)

// dstGPR picks a destination register and records it as recently written.
func (g *gen) dstGPR() isa.Reg {
	r := isa.GPR(g.rng.Intn(numScratchGPR))
	g.noteWrite(r)
	return r
}

// invariantGPR picks a long-lived register.
func (g *gen) invariantGPR() isa.Reg {
	return isa.GPR(numScratchGPR + g.rng.Intn(isa.NumGPR-numScratchGPR))
}

func (g *gen) noteWrite(r isa.Reg) { g.recent.add(r, 6) }

// srcGPR picks a source register: a recent write (dependency chain), a
// long-lived invariant, or an arbitrary scratch register.
func (g *gen) srcGPR() isa.Reg {
	r := g.rng.Float64()
	switch {
	case g.recent.n > 0 && r < g.prof.DepChain:
		return g.recent.r[g.rng.Intn(g.recent.n)]
	case r < g.prof.DepChain+0.4:
		return g.invariantGPR()
	default:
		return isa.GPR(g.rng.Intn(numScratchGPR))
	}
}

// addrGPR picks the base register of a memory access: overwhelmingly an
// invariant base pointer, as in real base+offset addressing.
func (g *gen) addrGPR() isa.Reg {
	if g.rng.Float64() < 0.85 {
		return g.invariantGPR()
	}
	return g.srcGPR()
}

func (g *gen) dstFP() isa.Reg {
	r := isa.FPR(g.rng.Intn(numScratchFP))
	g.recentFP.add(r, 4)
	return r
}

func (g *gen) srcFP() isa.Reg {
	r := g.rng.Float64()
	switch {
	case g.recentFP.n > 0 && r < g.prof.DepChain+0.1:
		return g.recentFP.r[g.rng.Intn(g.recentFP.n)]
	case r < g.prof.DepChain+0.35:
		return isa.FPR(numScratchFP + g.rng.Intn(isa.NumFP-numScratchFP))
	default:
		return isa.FPR(g.rng.Intn(numScratchFP))
	}
}

// draft records a macro-instruction wrapping uops and returns its index.
// PCs and sizes are assigned in layout; memStream < 0 means non-memory.
func (g *gen) draft(kind isa.InstKind, memStream int32, uops ...isa.Uop) int32 {
	g.drafts = append(g.drafts, draft{kind: kind, stream: memStream,
		lo: int32(len(g.uops)), n: int32(len(uops))})
	g.uops = append(g.uops, uops...)
	return int32(len(g.drafts) - 1)
}

// appendInst appends a body instruction to the block genBlock is emitting.
func (g *gen) appendInst(b *Block, kind isa.InstKind, memStream int32, uops ...isa.Uop) {
	g.draft(kind, memStream, uops...)
	g.spans[b.ID].hi++
}

// streamPoolSize is the number of distinct memory address streams per
// program: real code concentrates its accesses on a handful of arrays,
// structures and the stack, shared by many static instructions.
const streamPoolSize = 20

// newStream assigns a memory instruction to an address stream from the
// shared pool, with a skewed distribution so a few streams dominate.
func (g *gen) newStream() int32 {
	g.streams = streamPoolSize
	r := g.rng.Float64()
	return int32(float64(streamPoolSize) * r * r)
}

var aluOps = []isa.Op{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr}
var aluImmOps = []isa.Op{isa.OpAddImm, isa.OpSubImm, isa.OpAndImm, isa.OpOrImm, isa.OpXorImm}
var fuseOps = []isa.Op{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor}

func (g *gen) aluOp() isa.Op  { return aluOps[g.rng.Intn(len(aluOps))] }
func (g *gen) fuseOp() isa.Op { return fuseOps[g.rng.Intn(len(fuseOps))] }

// genBlock synthesizes the body (non-terminator) instructions of one block.
// Hot blocks carry the redundancy patterns the dynamic optimizer targets;
// cold blocks are plain code.
func (g *gen) genBlock(p *Program, hot bool, nInsts int) *Block {
	prof := g.prof
	b := &Block{ID: g.nextID}
	g.nextID++
	at := int32(len(g.drafts))
	g.spans = append(g.spans, span{lo: at, hi: at, term: -1})
	sp := &g.spans[b.ID]

	for int(sp.hi-sp.lo) < nInsts {
		r := g.rng.Float64()
		switch {
		case hot && r < prof.DeadFrac:
			g.emitDeadPair(b)
		case hot && r < prof.DeadFrac+prof.ConstFrac:
			g.emitConstChain(b)
		case hot && r < prof.DeadFrac+prof.ConstFrac+prof.CopyFrac:
			g.emitCopyChain(b)
		case hot && r < prof.DeadFrac+prof.ConstFrac+prof.CopyFrac+prof.FuseFrac:
			g.emitFusePair(b)
		case hot && r < prof.DeadFrac+prof.ConstFrac+prof.CopyFrac+prof.FuseFrac+prof.SimdFrac:
			g.emitSimdPair(b)
		default:
			g.emitMixed(b)
		}
	}
	// Trim overshoot from multi-instruction patterns.
	if int(sp.hi-sp.lo) > nInsts {
		sp.hi = sp.lo + int32(nInsts)
	}
	return b
}

// emitMixed emits one instruction drawn from the profile's mix.
func (g *gen) emitMixed(b *Block) {
	prof := g.prof
	r := g.rng.Float64()
	switch {
	case r < prof.FracMem:
		g.emitMem(b)
	case r < prof.FracMem+prof.FracFP:
		g.emitFP(b)
	case r < prof.FracMem+prof.FracFP+prof.FracMulDiv:
		op := isa.OpMul
		if g.rng.Float64() < 0.2 {
			op = isa.OpDiv
		}
		u := isa.NewUop(op)
		u.Src[0] = g.srcGPR()
		u.Src[1] = g.srcGPR()
		u.Dst[0] = g.dstGPR()
		g.appendInst(b, isa.KindSimple, -1, u)
	case r < prof.FracMem+prof.FracFP+prof.FracMulDiv+prof.ComplexFrac:
		g.emitComplex(b)
	default:
		g.emitALU(b)
	}
}

func (g *gen) emitALU(b *Block) {
	var u isa.Uop
	if g.rng.Float64() < 0.4 {
		u = isa.NewUop(aluImmOps[g.rng.Intn(len(aluImmOps))])
		u.Src[0] = g.srcGPR()
		u.Imm = int64(g.rng.Intn(256))
	} else {
		u = isa.NewUop(g.aluOp())
		u.Src[0] = g.srcGPR()
		u.Src[1] = g.srcGPR()
	}
	u.Dst[0] = g.dstGPR()
	g.appendInst(b, isa.KindSimple, -1, u)
}

func (g *gen) emitFP(b *Block) {
	if g.rng.Float64() < 0.45 {
		// Multiply-add pair (dot-product style): fmul t,a,b; fadd t,t,c.
		// The intermediate dies at the add — the canonical FP fusion
		// opportunity.
		t := g.dstFP()
		mul := isa.NewUop(isa.OpFMul)
		mul.Src[0] = g.srcFP()
		mul.Src[1] = g.srcFP()
		mul.Dst[0] = t
		add := isa.NewUop(isa.OpFAdd)
		add.Src[0] = t
		add.Src[1] = g.srcFP()
		if add.Src[1] == t {
			add.Src[1] = isa.FPR((int(t) - int(isa.GPR(0)) + 1) % numScratchFP)
		}
		add.Dst[0] = t
		g.appendInst(b, isa.KindSimple, -1, mul)
		g.appendInst(b, isa.KindSimple, -1, add)
		return
	}
	ops := []isa.Op{isa.OpFAdd, isa.OpFAdd, isa.OpFMul, isa.OpFMul, isa.OpFDiv}
	u := isa.NewUop(ops[g.rng.Intn(len(ops))])
	if u.Op == isa.OpFDiv && g.rng.Float64() < 0.8 {
		u.Op = isa.OpFMul // divides stay rare
	}
	u.Src[0] = g.srcFP()
	u.Src[1] = g.srcFP()
	u.Dst[0] = g.dstFP()
	g.appendInst(b, isa.KindSimple, -1, u)
}

func (g *gen) emitMem(b *Block) {
	sid := g.newStream()
	if g.rng.Float64() < 0.65 { // loads outnumber stores ~2:1
		if g.rng.Float64() < 0.35 {
			// load-op: 2 uops.
			ld := isa.NewUop(isa.OpLoad)
			ld.Src[0] = g.addrGPR()
			ld.Imm = int64(g.rng.Intn(128)) * 8
			t := g.dstGPR()
			ld.Dst[0] = t
			op := isa.NewUop(g.aluOp())
			op.Src[0] = t
			op.Src[1] = g.srcGPR()
			op.Dst[0] = g.dstGPR()
			g.appendInst(b, isa.KindSimple, sid, ld, op)
			return
		}
		ld := isa.NewUop(isa.OpLoad)
		ld.Src[0] = g.addrGPR()
		ld.Imm = int64(g.rng.Intn(128)) * 8
		if g.prof.FracFP > 0.1 && g.rng.Float64() < g.prof.FracFP {
			ld.Dst[0] = g.dstFP()
		} else {
			ld.Dst[0] = g.dstGPR()
		}
		g.appendInst(b, isa.KindSimple, sid, ld)
		return
	}
	st := isa.NewUop(isa.OpStore)
	st.Src[0] = g.addrGPR()
	st.Src[1] = g.srcGPR()
	st.Imm = int64(g.rng.Intn(128)) * 8
	g.appendInst(b, isa.KindSimple, sid, st)
}

// emitComplex emits a 3-4 uop macro-instruction (read-modify-write style)
// that requires the complex decoder slot.
func (g *gen) emitComplex(b *Block) {
	sid := g.newStream()
	base := g.addrGPR()
	off := int64(g.rng.Intn(64)) * 8
	t := g.dstGPR()
	ld := isa.NewUop(isa.OpLoad)
	ld.Src[0] = base
	ld.Imm = off
	ld.Dst[0] = t
	op := isa.NewUop(g.aluOp())
	op.Src[0] = t
	op.Src[1] = g.srcGPR()
	op.Dst[0] = t
	st := isa.NewUop(isa.OpStore)
	st.Src[0] = base
	st.Src[1] = t
	st.Imm = off
	uops := [4]isa.Uop{ld, op, st}
	n := 3
	if g.rng.Float64() < 0.3 {
		extra := isa.NewUop(isa.OpAddImm)
		extra.Src[0] = base
		extra.Imm = 8
		extra.Dst[0] = g.dstGPR()
		uops[n] = extra
		n++
	}
	g.appendInst(b, isa.KindComplex, sid, uops[:n]...)
}

// emitDeadPair emits a write to a register immediately overwritten by the
// next instruction without an intervening read — removable by DCE.
func (g *gen) emitDeadPair(b *Block) {
	victim := isa.GPR(g.rng.Intn(numScratchGPR))
	dead := isa.NewUop(g.aluOp())
	dead.Src[0] = g.srcGPR()
	dead.Src[1] = g.srcGPR()
	dead.Dst[0] = victim
	g.appendInst(b, isa.KindSimple, -1, dead)

	over := isa.NewUop(aluImmOps[g.rng.Intn(len(aluImmOps))])
	over.Src[0] = g.srcGPR() // may read victim? avoid:
	if over.Src[0] == victim {
		over.Src[0] = isa.GPR((int(victim) + 1) % numScratchGPR)
	}
	over.Imm = int64(g.rng.Intn(128))
	over.Dst[0] = victim
	g.noteWrite(victim)
	g.appendInst(b, isa.KindSimple, -1, over)
}

// emitConstChain emits movi followed by a dependent immediate ALU op —
// foldable to a single movi by constant propagation, with the first movi
// then dead if its target is overwritten.
func (g *gen) emitConstChain(b *Block) {
	a := isa.GPR(g.rng.Intn(numScratchGPR))
	mv := isa.NewUop(isa.OpMovImm)
	mv.Dst[0] = a
	mv.Imm = int64(g.rng.Intn(1024))
	g.appendInst(b, isa.KindSimple, -1, mv)

	fold := isa.NewUop(aluImmOps[g.rng.Intn(3)]) // add/sub/and
	fold.Src[0] = a
	fold.Imm = int64(g.rng.Intn(256))
	fold.Dst[0] = a // overwrites the movi target: movi becomes dead post-fold
	g.noteWrite(a)
	g.appendInst(b, isa.KindSimple, -1, fold)
}

// emitCopyChain emits mov b,a; use of b — copy propagation rewrites the use
// and a later overwrite makes the mov dead.
func (g *gen) emitCopyChain(b *Block) {
	src := g.srcGPR()
	cp := isa.GPR(g.rng.Intn(numScratchGPR))
	if cp == src {
		cp = isa.GPR((int(cp) + 3) % numScratchGPR)
	}
	mv := isa.NewUop(isa.OpMov)
	mv.Src[0] = src
	mv.Dst[0] = cp
	g.appendInst(b, isa.KindSimple, -1, mv)

	use := isa.NewUop(g.aluOp())
	use.Src[0] = cp
	use.Src[1] = g.srcGPR()
	use.Dst[0] = cp // overwrite the copy: mov becomes dead after copy-prop
	g.noteWrite(cp)
	g.appendInst(b, isa.KindSimple, -1, use)
}

// emitFusePair emits a dependent ALU pair with single-use intermediate —
// fusable into one packed uop.
func (g *gen) emitFusePair(b *Block) {
	t := isa.GPR(g.rng.Intn(numScratchGPR))
	u1 := isa.NewUop(g.fuseOp())
	u1.Src[0] = g.srcGPR()
	u1.Src[1] = g.srcGPR()
	u1.Dst[0] = t
	g.appendInst(b, isa.KindSimple, -1, u1)

	u2 := isa.NewUop(g.fuseOp())
	u2.Src[0] = t
	u2.Src[1] = g.srcGPR()
	if u2.Src[1] == t {
		u2.Src[1] = isa.GPR((int(t) + 5) % numScratchGPR)
	}
	u2.Dst[0] = t // intermediate value dies here
	g.noteWrite(t)
	g.appendInst(b, isa.KindSimple, -1, u2)
}

// emitSimdPair emits two adjacent independent same-op ALU instructions —
// packable into one SIMD uop.
func (g *gen) emitSimdPair(b *Block) {
	op := g.fuseOp()
	d1 := isa.GPR(g.rng.Intn(numScratchGPR / 2))
	d2 := isa.GPR(numScratchGPR/2 + g.rng.Intn(numScratchGPR/2))
	u1 := isa.NewUop(op)
	u1.Src[0] = g.srcGPR()
	u1.Src[1] = g.srcGPR()
	u1.Dst[0] = d1
	u2 := isa.NewUop(op)
	u2.Src[0] = g.srcGPR()
	u2.Src[1] = g.srcGPR()
	u2.Dst[0] = d2
	// Lane independence: the second op must not read the first's result.
	for i := 0; i < 2; i++ {
		if u2.Src[i] == d1 {
			u2.Src[i] = isa.GPR((int(d1) + 7) % numScratchGPR)
		}
	}
	g.noteWrite(d1)
	g.noteWrite(d2)
	g.appendInst(b, isa.KindSimple, -1, u1)
	g.appendInst(b, isa.KindSimple, -1, u2)
}

// layout assigns PCs and encoded sizes: hot loops and procedures are packed
// at low addresses (small, cache-resident footprint), cold blocks spread
// after them, giving the cold region its instruction-cache pressure.
func (g *gen) layout(p *Program) {
	p.blocks = make([]*Block, 0, len(g.spans))
	for _, l := range p.Loops {
		p.blocks = append(p.blocks, l.Body...)
	}
	for _, pr := range p.Procs {
		p.blocks = append(p.blocks, pr.Blocks...)
	}
	nHot := len(p.blocks)
	p.blocks = append(p.blocks, p.Cold...)
	g.fillSlabs(p.blocks)

	pc := uint64(0x0040_0000)
	for i, b := range p.blocks {
		if i == nHot {
			pc += 4096 // gap between hot and cold regions
		}
		for k := range b.Insts {
			in := &b.Insts[k]
			in.PC = pc
			in.Size = g.instSize(in)
			pc += uint64(in.Size)
		}
		if i >= nHot {
			pc += uint64(g.rng.Intn(32)) // sparse cold layout
		}
	}
	// Resolve static branch targets now that PCs exist.
	for _, b := range p.blocks {
		if len(b.Insts) == 0 {
			continue
		}
		last := &b.Insts[len(b.Insts)-1]
		switch b.Term {
		case TermCond, TermLoopBack, TermJmp:
			if b.Taken != nil {
				last.Target = b.Taken.PC()
			}
		case TermCall:
			if b.Callee != nil && len(b.Callee.Blocks) > 0 {
				last.Target = b.Callee.Blocks[0].PC()
			}
		}
	}
}

// fillSlabs copies every block's drafts, in the given (address) order,
// into three exactly sized arrays — instructions, uops and memory streams —
// and decodes each instruction. The drafts trimmed off a block's end are
// left behind with the rest of the generator state.
func (g *gen) fillSlabs(blocks []*Block) {
	nInsts, nUops := 0, 0
	count := func(d int32) {
		nInsts++
		nUops += int(g.drafts[d].n)
	}
	for _, b := range blocks {
		sp := g.spans[b.ID]
		for d := sp.lo; d < sp.hi; d++ {
			count(d)
		}
		if sp.term >= 0 {
			count(sp.term)
		}
	}
	insts := make([]isa.Inst, 0, nInsts)
	streams := make([]int32, 0, nInsts)
	uops := make([]isa.Uop, 0, nUops)
	add := func(d *draft) {
		lo := len(uops)
		uops = append(uops, g.uops[d.lo:d.lo+d.n]...)
		insts = append(insts, isa.Inst{Kind: d.kind, Uops: uops[lo:len(uops):len(uops)]})
		insts[len(insts)-1].Decode()
		streams = append(streams, d.stream)
	}
	for _, b := range blocks {
		sp := g.spans[b.ID]
		lo := len(insts)
		for d := sp.lo; d < sp.hi; d++ {
			add(&g.drafts[d])
		}
		if sp.term >= 0 {
			add(&g.drafts[sp.term])
		}
		b.Insts = insts[lo:len(insts):len(insts)]
		b.MemStream = streams[lo:len(streams):len(streams)]
	}
}

// instSize draws a plausible IA32 encoding length for the instruction.
func (g *gen) instSize(in *isa.Inst) uint8 {
	switch in.Kind {
	case isa.KindComplex:
		return uint8(5 + g.rng.Intn(7))
	case isa.KindBranch, isa.KindJump:
		return uint8(2 + g.rng.Intn(4))
	case isa.KindCall:
		return 5
	case isa.KindRet:
		return 1
	default:
		if len(in.Uops) > 1 {
			return uint8(3 + g.rng.Intn(5))
		}
		return uint8(2 + g.rng.Intn(3))
	}
}
