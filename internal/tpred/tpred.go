// Package tpred implements the trace predictor: the higher-priority
// next-TID predictor that steers PARROT's fetch selector toward the hot
// pipeline (§2.3).
//
// The predictor maps a hashed history of recently committed TIDs to the
// predicted next TID key, with two-bit confidence hysteresis. It is trained
// continuously on the committed TID stream — the paper's design keeps the
// trace predictor and hot filter training on all committed instructions so
// the hot path is discovered while executing cold.
package tpred

// Stats counts predictor activity.
type Stats struct {
	Lookups     uint64
	Predictions uint64 // confident predictions issued
	Correct     uint64
	Mispredicts uint64 // confident predictions that were wrong
	Updates     uint64
}

// MispredictRate returns wrong confident predictions per confident
// prediction. This is the hot-code analogue of a branch misprediction rate
// (paper Figure 4.7).
func (s *Stats) MispredictRate() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Predictions)
}

type entry struct {
	tag  uint64
	next uint64
	conf uint8 // 0..3; predictions are issued at conf >= 2
}

// Predictor is the next-TID predictor.
type Predictor struct {
	table   []entry
	setMask uint64

	// last holds the most recent TID key; the prediction context is a
	// hash of this finite window. Depth-one history predicts the
	// self-succession of unrolled loop traces — the dominant hot pattern —
	// robustly; deeper history fragments training on irregular code.
	last [2]uint64

	Stats Stats
}

// New builds a predictor with the given number of entries (rounded up to a
// power of two). The paper's PARROT models use 2K entries.
func New(entries int) *Predictor {
	n := 1
	for n < entries {
		n <<= 1
	}
	return &Predictor{table: make([]entry, n), setMask: uint64(n - 1)}
}

// Entries returns the table size.
func (p *Predictor) Entries() int { return len(p.table) }

// history hashes the finite TID window into the prediction context.
func (p *Predictor) history() uint64 {
	h := p.last[0] * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

func (p *Predictor) index() uint64 {
	h := p.history()
	return (h ^ h>>21) & p.setMask
}

// Predict returns the predicted next TID key given the current history.
// ok is false when the predictor has no confident prediction, in which case
// the fetch selector falls back to the branch-predictor-driven cold
// pipeline.
func (p *Predictor) Predict() (key uint64, ok bool) {
	p.Stats.Lookups++
	e := &p.table[p.index()]
	if e.tag == p.history() && e.conf >= 2 {
		p.Stats.Predictions++
		return e.next, true
	}
	return 0, false
}

// Train records the actual next TID and advances the history. predicted
// and predOK must be the result of the Predict call made before this
// segment, so mispredictions are counted against issued predictions only.
func (p *Predictor) Train(actual uint64, predicted uint64, predOK bool) {
	p.Stats.Updates++
	if predOK {
		if predicted == actual {
			p.Stats.Correct++
		} else {
			p.Stats.Mispredicts++
		}
	}
	h := p.history()
	e := &p.table[p.index()]
	switch {
	case e.tag == h && e.next == actual:
		if e.conf < 3 {
			e.conf++
		}
	case e.tag == h:
		if e.conf > 0 {
			e.conf--
		} else {
			e.next = actual
			e.conf = 1
		}
	default:
		// Tag replacement with weak initial confidence. The predictor can
		// issue a prediction after two consistent sightings.
		*e = entry{tag: h, next: actual, conf: 1}
	}
	p.last[1] = p.last[0]
	p.last[0] = actual
}

// ResetHistory clears path history (used after machine flushes).
func (p *Predictor) ResetHistory() { p.last = [2]uint64{} }

// Reset returns the predictor to its just-constructed state: table, history
// and statistics cleared (machine-pooling Reset protocol).
func (p *Predictor) Reset() {
	for i := range p.table {
		p.table[i] = entry{}
	}
	p.last = [2]uint64{}
	p.Stats = Stats{}
}
