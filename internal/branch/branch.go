// Package branch implements the branch prediction structures of the cold
// front-end: a gshare direction predictor, a branch target buffer and a
// return address stack.
//
// The study configures a 4K-entry predictor for the baseline N and W models
// and a 2K-entry branch predictor (alongside a 2K-entry trace predictor) for
// the PARROT models (§4.2 of the paper).
package branch

// Stats counts predictor activity for performance and energy accounting.
type Stats struct {
	Lookups     uint64
	Updates     uint64
	Mispredicts uint64
}

// MispredictRate returns mispredictions per lookup.
func (s *Stats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

// Predictor is a gshare conditional-branch direction predictor: a table of
// two-bit saturating counters indexed by the branch PC XORed with the global
// history register.
type Predictor struct {
	table    []uint8
	mask     uint32
	history  uint32
	histBits uint

	Stats Stats
}

// NewPredictor builds a gshare predictor with the given number of entries
// (rounded up to a power of two) and history bits.
func NewPredictor(entries int, histBits uint) *Predictor {
	n := 1
	for n < entries {
		n <<= 1
	}
	t := make([]uint8, n)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return &Predictor{table: t, mask: uint32(n - 1), histBits: histBits}
}

// Entries returns the table size.
func (p *Predictor) Entries() int { return len(p.table) }

// Reset returns the predictor to its just-constructed state: counters back
// to weakly not-taken, history and statistics cleared. Part of the
// machine-pooling Reset protocol.
func (p *Predictor) Reset() {
	for i := range p.table {
		p.table[i] = 1
	}
	p.history = 0
	p.Stats = Stats{}
}

func (p *Predictor) index(pc uint64) uint32 {
	return (uint32(pc>>2) ^ p.history) & p.mask
}

// Predict returns the predicted direction for the branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	p.Stats.Lookups++
	return p.table[p.index(pc)] >= 2
}

// Update trains the predictor with the resolved direction and shifts the
// global history. It also records whether the prior prediction would have
// been wrong; callers that already called Predict should use Record instead
// to avoid double-counting mispredictions.
func (p *Predictor) Update(pc uint64, taken bool) {
	p.Stats.Updates++
	i := p.index(pc)
	c := p.table[i]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.table[i] = c
	p.history = ((p.history << 1) | b2u(taken)) & ((1 << p.histBits) - 1)
}

// PredictAndTrain performs a combined lookup/train step as used by the
// trace-driven fetch model: it returns whether the prediction matched the
// actual outcome and updates all state, counting a misprediction on mismatch.
func (p *Predictor) PredictAndTrain(pc uint64, actual bool) (correct bool) {
	pred := p.Predict(pc)
	correct = pred == actual
	if !correct {
		p.Stats.Mispredicts++
	}
	p.Update(pc, actual)
	return correct
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// BTB is a direct-mapped branch target buffer holding taken targets.
type BTB struct {
	tags    []uint64
	targets []uint64
	valid   []bool
	mask    uint64

	Stats Stats
}

// NewBTB builds a BTB with the given number of entries (rounded up to a
// power of two).
func NewBTB(entries int) *BTB {
	n := 1
	for n < entries {
		n <<= 1
	}
	return &BTB{
		tags:    make([]uint64, n),
		targets: make([]uint64, n),
		valid:   make([]bool, n),
		mask:    uint64(n - 1),
	}
}

// Entries returns the table size.
func (b *BTB) Entries() int { return len(b.tags) }

// Reset clears all entries and statistics (machine-pooling Reset protocol).
func (b *BTB) Reset() {
	for i := range b.tags {
		b.tags[i], b.targets[i], b.valid[i] = 0, 0, false
	}
	b.Stats = Stats{}
}

// Lookup returns the stored target for pc, if present.
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	b.Stats.Lookups++
	i := (pc >> 2) & b.mask
	if b.valid[i] && b.tags[i] == pc {
		return b.targets[i], true
	}
	return 0, false
}

// Insert stores the taken target for pc.
func (b *BTB) Insert(pc, target uint64) {
	b.Stats.Updates++
	i := (pc >> 2) & b.mask
	b.tags[i] = pc
	b.targets[i] = target
	b.valid[i] = true
}

// RAS is a return address stack with wraparound overwrite on overflow, as in
// real hardware.
type RAS struct {
	stack []uint64
	top   int
	depth int

	Stats Stats
}

// NewRAS builds a return address stack with the given capacity.
func NewRAS(capacity int) *RAS {
	if capacity < 1 {
		capacity = 1
	}
	return &RAS{stack: make([]uint64, capacity)}
}

// Push records a return address on a call.
func (r *RAS) Push(addr uint64) {
	r.Stats.Updates++
	r.stack[r.top] = addr
	r.top = (r.top + 1) % len(r.stack)
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the return address for a return instruction. ok is false
// when the stack has underflowed.
func (r *RAS) Pop() (addr uint64, ok bool) {
	r.Stats.Lookups++
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return r.stack[r.top], true
}

// Depth returns the current occupancy.
func (r *RAS) Depth() int { return r.depth }

// Reset empties the stack and clears statistics (machine-pooling Reset
// protocol).
func (r *RAS) Reset() {
	for i := range r.stack {
		r.stack[i] = 0
	}
	r.top, r.depth = 0, 0
	r.Stats = Stats{}
}
