package workload

import (
	"math/rand"
	"sync"

	"parrot/internal/isa"
)

// DynInst is one committed dynamic instruction: the static instruction plus
// its resolved control and memory behaviour.
//
// The three bools follow the three 8-byte fields so that they share one
// word: 32 bytes instead of 40 (TestDynInstSize pins it). Every selector
// slab copy and every recorded selection log pays this size per
// instruction; trace files encode each field explicitly, so nothing
// depends on the layout.
type DynInst struct {
	Inst *isa.Inst

	// NextPC is the address of the dynamically following instruction.
	NextPC uint64

	// MemAddr is the effective address for memory instructions (0 if none).
	MemAddr uint64

	// Taken is the resolved direction for CTI instructions.
	Taken bool

	// HotPhase marks instructions generated inside a hot-loop episode.
	// It is generator ground truth used for diagnostics only — the machine
	// discovers hotness through its own filters.
	HotPhase bool

	// EpisodeEnd marks the final instruction of a walker episode. The
	// instruction behaves like an indirect control transfer (the dynamic
	// successor is unrelated code), so trace selection terminates on it.
	EpisodeEnd bool
}

// Stream walks a synthesized program, producing the dynamic instruction
// stream deterministically from the profile seed.
type Stream struct {
	prog *Program
	rng  *rand.Rand

	remaining int
	queue     []DynInst
	qpos      int

	hotEmitted  uint64
	coldEmitted uint64

	loopCDF  []float64
	coldNext int

	// Per-stream memory address state.
	strided []bool
	sbase   []uint64
	spos    []uint64
	sstride []uint64
	sregion []uint64

	// Period-2 pattern branch state, keyed by block ID.
	patState map[int]bool

	// Stats observed while walking.
	Emitted uint64
}

// NewStream builds a walker over prog emitting n dynamic instructions.
func NewStream(prog *Program, n int) *Stream {
	s := &Stream{}
	s.Init(prog, n)
	return s
}

// Init (re)initializes the walker over prog for n dynamic instructions,
// reusing the stream's buffers. An Init-ed stream is indistinguishable from
// a fresh NewStream one: the rng is reseeded, and all episode, queue and
// address-stream state is rebuilt from the program — the property the
// pooled-vs-fresh determinism tests in core cover. GetStream/PutStream
// recycle streams through a pool so the steady-state experiment loop
// allocates no walker state at all.
func (s *Stream) Init(prog *Program, n int) {
	s.prog = prog
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(prog.Prof.Seed + 1))
	} else {
		// Same generator state as rand.New(rand.NewSource(seed)).
		s.rng.Seed(prog.Prof.Seed + 1)
	}
	s.remaining = n
	s.queue = s.queue[:0]
	s.qpos = 0
	s.hotEmitted, s.coldEmitted = 0, 0
	s.loopCDF = s.loopCDF[:0]
	s.coldNext = 0
	if s.patState == nil {
		s.patState = make(map[int]bool)
	} else {
		clear(s.patState)
	}
	s.Emitted = 0

	// Zipf CDF over loops.
	total := 0.0
	for _, l := range prog.Loops {
		total += l.Weight
	}
	acc := 0.0
	for _, l := range prog.Loops {
		acc += l.Weight / total
		s.loopCDF = append(s.loopCDF, acc)
	}
	// Memory streams.
	ws := uint64(prog.Prof.WSData)
	if ws < 4096 {
		ws = 4096
	}
	ns := prog.NumStreams()
	s.strided = resizeBools(s.strided, ns)
	s.sbase = resizeU64s(s.sbase, ns)
	s.spos = resizeU64s(s.spos, ns)
	s.sstride = resizeU64s(s.sstride, ns)
	s.sregion = resizeU64s(s.sregion, ns)
	for i := 0; i < ns; i++ {
		switch {
		case s.rng.Float64() < 0.45:
			// Stack-like stream: tiny, cache-resident region.
			s.strided[i] = false
			s.sregion[i] = 2048
		case s.rng.Float64() < prog.Prof.StrideFrac:
			// Streaming array walk. The walked region scales with the
			// working set but is bounded per stream; large aggregate
			// working sets emerge from many concurrent streams.
			s.strided[i] = true
			region := ws / 16 << s.rng.Intn(2)
			if region < 32<<10 {
				region = 32 << 10
			}
			if region > 64<<10 {
				region = 64 << 10
			}
			s.sregion[i] = region &^ 7
			s.sstride[i] = 8
		default:
			// Pointer-ish stream with three-level temporal locality.
			s.strided[i] = false
			s.sregion[i] = ws
		}
		s.sbase[i] = 0x1000_0000 + uint64(s.rng.Intn(1<<20))*8
		s.spos[i] = uint64(s.rng.Intn(1 << 16))
	}
}

// resizeBools returns a zeroed bool slice of length n, reusing capacity.
func resizeBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// resizeU64s returns a zeroed uint64 slice of length n, reusing capacity.
func resizeU64s(u []uint64, n int) []uint64 {
	if cap(u) < n {
		return make([]uint64, n)
	}
	u = u[:n]
	clear(u)
	return u
}

// streamPool recycles walker state (episode queue, address-stream arrays,
// rng) across simulations.
var streamPool = sync.Pool{New: func() any { return new(Stream) }}

// GetStream returns a pooled stream initialized over prog for n dynamic
// instructions. Return it with PutStream when the run completes.
func GetStream(prog *Program, n int) *Stream {
	s := streamPool.Get().(*Stream)
	s.Init(prog, n)
	return s
}

// PutStream hands a stream back to the pool. The caller must not use it
// afterwards.
func PutStream(s *Stream) { streamPool.Put(s) }

// HotFractionObserved reports the fraction of emitted instructions that came
// from hot-loop episodes.
func (s *Stream) HotFractionObserved() float64 {
	t := s.hotEmitted + s.coldEmitted
	if t == 0 {
		return 0
	}
	return float64(s.hotEmitted) / float64(t)
}

// Next returns the next dynamic instruction; ok is false at stream end.
func (s *Stream) Next() (DynInst, bool) {
	if s.remaining <= 0 {
		return DynInst{}, false
	}
	for s.qpos >= len(s.queue) {
		s.refill()
	}
	d := s.queue[s.qpos]
	s.qpos++
	s.remaining--
	s.Emitted++
	return d, true
}

// Drain collects up to n instructions into a slice (testing helper).
func (s *Stream) Drain(n int) []DynInst {
	out := make([]DynInst, 0, n)
	for len(out) < n {
		d, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, d)
	}
	return out
}

// refill generates the next episode into the queue.
func (s *Stream) refill() {
	s.queue = s.queue[:0]
	s.qpos = 0
	f := s.prog.Prof.HotFraction
	wantHot := float64(s.hotEmitted)*(1-f) <= float64(s.coldEmitted)*f
	if len(s.prog.Loops) == 0 {
		wantHot = false
	}
	if len(s.prog.Cold) == 0 {
		wantHot = true
	}
	var emitted int
	if wantHot {
		emitted = s.hotEpisode()
		s.hotEmitted += uint64(emitted)
	} else {
		emitted = s.coldEpisode()
		s.coldEmitted += uint64(emitted)
	}
	if len(s.queue) > 0 {
		s.queue[len(s.queue)-1].EpisodeEnd = true
	}
}

// pickLoop draws a loop according to zipf popularity.
func (s *Stream) pickLoop() *Loop {
	r := s.rng.Float64()
	for i, c := range s.loopCDF {
		if r <= c {
			return s.prog.Loops[i]
		}
	}
	return s.prog.Loops[len(s.prog.Loops)-1]
}

// hotEpisode walks one full loop execution (all iterations).
func (s *Stream) hotEpisode() int {
	l := s.pickLoop()
	trips := l.TripMin
	if l.TripMax > l.TripMin {
		trips += s.rng.Intn(l.TripMax - l.TripMin + 1)
	}
	n := 0
	for it := 0; it < trips; it++ {
		lastIter := it == trips-1
		n += s.walkBody(l, lastIter)
	}
	return n
}

// walkBody walks one loop iteration, following hammocks and calls.
func (s *Stream) walkBody(l *Loop, lastIter bool) int {
	n := 0
	b := l.Body[0]
	for b != nil {
		isLast := b.Term == TermLoopBack
		var next *Block
		switch b.Term {
		case TermLoopBack:
			// Back-edge: taken unless this is the final iteration.
			if lastIter {
				// Episode ends here; successor is unrelated code.
				n += s.emitBlock(b, true, false, 0)
			} else {
				n += s.emitBlock(b, true, true, l.Body[0].PC())
			}
			next = nil
		case TermCall:
			n += s.emitBlock(b, true, true, b.Callee.Blocks[0].PC())
			n += s.walkProc(b.Callee, true, b.Fall.PC())
			next = b.Fall
		case TermCond:
			taken := s.decide(b)
			if taken {
				next = b.Taken
			} else {
				next = b.Fall
			}
			n += s.emitBlock(b, true, taken, next.PC())
		default:
			next = b.Fall
			n += s.emitBlock(b, true, false, next.PC())
		}
		if isLast {
			break
		}
		b = next
	}
	return n
}

// walkProc walks a leaf procedure; retPC is the dynamic return address.
func (s *Stream) walkProc(p *Proc, hot bool, retPC uint64) int {
	n := 0
	for i, b := range p.Blocks {
		next := retPC
		if i+1 < len(p.Blocks) {
			next = p.Blocks[i+1].PC()
		}
		n += s.emitBlock(b, hot, b.Term == TermRet, next)
	}
	return n
}

// coldEpisode walks a chain of cold blocks.
func (s *Stream) coldEpisode() int {
	prof := s.prog.Prof
	length := prof.ColdChain[0]
	if prof.ColdChain[1] > prof.ColdChain[0] {
		length += s.rng.Intn(prof.ColdChain[1] - prof.ColdChain[0] + 1)
	}
	// Resume from where the last cold episode stopped, with occasional
	// jumps, so cold code has weak locality but a large footprint.
	if s.rng.Float64() < 0.7 {
		// Skewed restart: cold code also has preferred paths, so branch
		// predictors and caches see realistic re-reference.
		r := s.rng.Float64()
		s.coldNext = int(float64(len(s.prog.Cold)) * r * r * r * r)
	}
	n := 0
	idx := s.coldNext
	cold := s.prog.Cold
	at := func(k int) *Block { return cold[k%len(cold)] }
	for i := 0; i < length; i++ {
		b := at(idx)
		switch b.Term {
		case TermCond:
			taken := s.decide(b)
			if taken {
				idx += 2
			} else {
				idx++
			}
			n += s.emitBlock(b, false, taken, at(idx).PC())
		case TermCall:
			n += s.emitBlock(b, false, true, b.Callee.Blocks[0].PC())
			n += s.walkProc(b.Callee, false, at(idx+1).PC())
			idx++
		case TermJmp, TermIndJmp:
			n += s.emitBlock(b, false, true, at(idx+1).PC())
			idx++
		default:
			n += s.emitBlock(b, false, false, at(idx+1).PC())
			idx++
		}
	}
	s.coldNext = idx % len(cold)
	return n
}

// decide resolves a conditional branch direction from its bias or pattern.
func (s *Stream) decide(b *Block) bool {
	if b.Pattern {
		v := s.patState[b.ID]
		s.patState[b.ID] = !v
		return v
	}
	return s.rng.Float64() < b.Bias
}

// emitBlock queues all instructions of a block with resolved dynamics.
// takenTerm gives the direction of the block's terminating CTI and nextPC
// the address of the dynamically following instruction (0 when the episode
// ends and the successor is unrelated code).
func (s *Stream) emitBlock(b *Block, hot, takenTerm bool, nextPC uint64) int {
	n := len(b.Insts)
	if n == 0 {
		return 0
	}
	// Grow the queue once per block and fill the slots in place: the
	// per-instruction append in the old loop copied every DynInst twice and
	// re-checked capacity each time.
	base := len(s.queue)
	if cap(s.queue) >= base+n {
		s.queue = s.queue[:base+n]
	} else {
		s.queue = append(s.queue, make([]DynInst, n)...)
	}
	q := s.queue[base:]
	for i := range b.Insts {
		in := &b.Insts[i]
		d := &q[i]
		d.Inst = in
		d.Taken = false
		d.NextPC = in.FallThrough()
		d.MemAddr = 0
		d.HotPhase = hot
		d.EpisodeEnd = false
		if sid := b.MemStream[i]; sid >= 0 {
			d.MemAddr = s.memAddr(int(sid))
		}
	}
	last := &q[n-1]
	if b.Term != TermFall {
		last.Taken = takenTerm
	}
	if nextPC != 0 {
		last.NextPC = nextPC
	} else {
		last.EpisodeEnd = true
	}
	return n
}

// memAddr advances one address stream and returns the next address.
// Non-strided streams exhibit three-level temporal locality: most accesses
// revisit a small hot region, some a warm region, and a tail roams the full
// working set — matching the strong reuse of real pointer code while still
// letting large working sets generate capacity misses.
func (s *Stream) memAddr(id int) uint64 {
	region := s.sregion[id]
	if s.strided[id] {
		s.spos[id]++
		return s.sbase[id] + (s.spos[id]*s.sstride[id])%region
	}
	r := s.rng.Float64()
	var span uint64
	switch {
	case r < 0.88:
		span = 3 << 9 // hot: aggregate across streams fits L1
	case r < 0.98:
		span = 32 << 10 // warm: aggregate fits L2
	default:
		span = region // cold tail over the working set
	}
	if span > region {
		span = region
	}
	return s.sbase[id] + uint64(s.rng.Int63n(int64(span/8)))*8
}
