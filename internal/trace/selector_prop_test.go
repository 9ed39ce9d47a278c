package trace

import (
	"testing"
	"testing/quick"

	"parrot/internal/workload"
)

// TestSelectorPartitionProperty: over random applications and stream
// lengths, trace selection partitions the committed stream exactly — every
// instruction lands in exactly one segment, order preserved, frames within
// capacity — and every segment's uop and memory-uop counts, joined
// segments included, equal a recount over its instructions.
func TestSelectorPartitionProperty(t *testing.T) {
	apps := workload.Apps()
	joined := 0
	f := func(appIdx uint8, lenSel uint8) bool {
		p := apps[int(appIdx)%len(apps)]
		n := 2000 + int(lenSel)*40
		prog := workload.Generate(p)
		stream := workload.NewStream(prog, n)
		sel := NewSelector()

		var fed []workload.DynInst
		var segs []Segment
		for {
			d, ok := stream.Next()
			if !ok {
				break
			}
			fed = append(fed, d)
			segs = append(segs, sel.Feed(&d)...)
		}
		segs = append(segs, sel.Flush()...)

		// Partition: concatenated segments reproduce the fed stream.
		k := 0
		for _, seg := range segs {
			if seg.Uops > MaxUops || seg.Uops <= 0 {
				return false
			}
			dirs := 0
			uops := 0
			mem := 0
			for _, d := range seg.Insts {
				if k >= len(fed) || fed[k].Inst != d.Inst || fed[k].Taken != d.Taken {
					return false
				}
				uops += len(d.Inst.Uops)
				for _, u := range d.Inst.Uops {
					if u.Op.IsMem() {
						mem++
					}
				}
				if d.Inst.Kind.String() == "branch" {
					dirs++
				}
				k++
			}
			if uops != seg.Uops || mem != seg.MemUops {
				t.Logf("%s: segment %v counts %d uops, %d memory uops; recount %d, %d",
					p.Name, seg.TID, seg.Uops, seg.MemUops, uops, mem)
				return false
			}
			if seg.Joined > 1 {
				joined++
			}
			// TID direction bits correspond to the conditional branches.
			if int(seg.TID.NDirs) != dirs {
				return false
			}
			// Single entry: TID start is the first instruction.
			if seg.TID.Start != seg.Insts[0].Inst.PC {
				return false
			}
		}
		return k == len(fed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
	if joined == 0 {
		t.Error("no joined segment was checked")
	}
}

// TestSelectorDeterminismProperty: feeding the same stream twice yields
// byte-identical segmentation.
func TestSelectorDeterminismProperty(t *testing.T) {
	p, _ := workload.ByName("twolf")
	prog := workload.Generate(p)
	run := func() []TID {
		stream := workload.NewStream(prog, 8000)
		sel := NewSelector()
		var tids []TID
		for {
			d, ok := stream.Next()
			if !ok {
				break
			}
			for _, s := range sel.Feed(&d) {
				tids = append(tids, s.TID)
			}
		}
		for _, s := range sel.Flush() {
			tids = append(tids, s.TID)
		}
		return tids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("segment counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("segmentation diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestJoiningBoundsUnrolling: joined traces never misreport their unit
// structure.
func TestJoiningBoundsUnrolling(t *testing.T) {
	p, _ := workload.ByName("swim")
	prog := workload.Generate(p)
	stream := workload.NewStream(prog, 20000)
	sel := NewSelector()
	joined := 0
	for {
		d, ok := stream.Next()
		if !ok {
			break
		}
		for _, seg := range sel.Feed(&d) {
			if seg.Joined < 1 {
				t.Fatalf("joined = %d", seg.Joined)
			}
			if seg.Joined > 1 {
				joined++
				if len(seg.Insts)%seg.Joined != 0 {
					t.Fatalf("joined segment %v not unit-divisible: %d insts / %d units",
						seg.TID, len(seg.Insts), seg.Joined)
				}
				if int(seg.TID.NDirs)%seg.Joined != 0 {
					t.Fatalf("joined dirs %d not divisible by %d", seg.TID.NDirs, seg.Joined)
				}
			}
		}
	}
	if joined == 0 {
		t.Error("swim's tight loops must produce joined (unrolled) traces")
	}
}
