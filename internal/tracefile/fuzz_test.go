package tracefile

import (
	"bytes"
	"testing"

	"parrot/internal/isa"
)

// FuzzTraceReader feeds arbitrary bytes to the trace-file reader, a trust
// boundary: parrotsim -tracefile replays files captured elsewhere. Parsing
// the header and draining every record must either fail with an error or
// yield only well-formed, decoded instructions — never panic, never hand
// the simulator a uop whose operands index past its tables, and never one
// whose dispatch form or memory-uop count differs from a fresh decode. The
// seed corpus
// under testdata/fuzz/FuzzTraceReader holds a valid capture and one input
// per case of the corruption tables.
func FuzzTraceReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The oracle restates the contract rather than calling checkUop, so
		// a gap in the reader's own check cannot hide from it.
		reg := func(r isa.Reg) bool { return r == isa.RegNone || r.Valid() }
		check := func(in *isa.Inst) {
			if in.Kind >= isa.NumInstKinds {
				t.Fatalf("accepted instruction kind %d", in.Kind)
			}
			mem := 0
			for _, u := range in.Uops {
				ok := int(u.Op) < isa.NumOps && u.Cond < isa.NumConds &&
					int(u.SubOps[0]) < isa.NumOps && int(u.SubOps[1]) < isa.NumOps
				for _, r := range append(u.Dst[:], u.Src[:]...) {
					ok = ok && reg(r)
				}
				if !ok {
					t.Fatalf("accepted malformed uop %+v", u)
				}
				if u.Form != isa.FormOf(&u) {
					t.Fatalf("uop %v: dispatch form %+v, fresh decode %+v", u, u.Form, isa.FormOf(&u))
				}
				if u.Op == isa.OpLoad || u.Op == isa.OpStore {
					mem++
				}
			}
			if int(in.MemUops) != mem {
				t.Fatalf("instruction %#x: MemUops %d, %d memory uops", in.PC, in.MemUops, mem)
			}
		}
		for _, in := range tr.Statics() {
			check(in)
		}
		for {
			d, ok := tr.Next()
			if !ok {
				break
			}
			check(d.Inst)
		}
	})
}
