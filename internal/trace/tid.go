// Package trace implements PARROT's trace abstractions: trace identifiers
// (TIDs), the deterministic trace-selection state machine of §2.2 and the
// construction of decoded, executable traces from committed instructions.
//
// A trace is a continuous segment of the dynamic instruction flow, possibly
// spanning several basic blocks. With the paper's selection criteria a TID
// compacts into a single start address plus a sequence of conditional-branch
// directions: the only indirect CTI permitted inside a trace is a RETURN
// whose call context is itself part of the trace, so its target is
// implicitly available.
package trace

import "fmt"

// MaxUops is the trace frame capacity: traces are constructed into frames of
// at most 64 uops (§2.2).
const MaxUops = 64

// TID uniquely identifies a trace: the start address and the directions of
// the conditional branches executed inside it.
type TID struct {
	Start uint64 // address of the first instruction
	Dirs  uint64 // bit i = direction of the i-th conditional branch
	NDirs uint8  // number of direction bits
}

// Valid reports whether the TID identifies a real trace.
func (t TID) Valid() bool { return t.Start != 0 }

// WithDir appends a direction bit, returning the extended TID.
func (t TID) WithDir(taken bool) TID {
	if taken {
		t.Dirs |= 1 << t.NDirs
	}
	t.NDirs++
	return t
}

// Dir returns the i-th direction bit.
func (t TID) Dir(i int) bool { return t.Dirs>>uint(i)&1 == 1 }

// Key compacts the TID into a 64-bit hash key for filters, predictors and
// the trace cache. Distinct TIDs may in principle collide, exactly as the
// hardware structures the paper describes would alias; collisions are rare
// at the working-set sizes involved.
func (t TID) Key() uint64 {
	h := t.Start
	h ^= t.Dirs * 0x9E3779B97F4A7C15
	h ^= uint64(t.NDirs) << 56
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// Concat joins two TIDs of consecutive identical traces (loop unrolling):
// the start address stays, direction strings concatenate.
func (t TID) Concat(o TID) TID {
	j := t
	for i := 0; i < int(o.NDirs); i++ {
		j = j.WithDir(o.Dir(i))
	}
	return j
}

// Prefix returns the TID cut to its first n direction bits: the TID a
// joined trace had after its first units.
func (t TID) Prefix(n int) TID {
	t.Dirs &= 1<<uint(n) - 1
	t.NDirs = uint8(n)
	return t
}

// String implements fmt.Stringer.
func (t TID) String() string {
	dirs := make([]byte, t.NDirs)
	for i := range dirs {
		if t.Dir(i) {
			dirs[i] = 'T'
		} else {
			dirs[i] = 'N'
		}
	}
	return fmt.Sprintf("%#x:%s", t.Start, dirs)
}
