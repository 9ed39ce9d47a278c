package ooo

import (
	"testing"

	"parrot/internal/isa"
)

// Engine micro-benchmarks for the hot per-cycle paths. Each benchmark runs a
// fixed deterministic program through a pooled (Reset) engine per iteration
// and reports ns/cycle, the per-clock cost of the kernel. The workloads pick
// out the three regimes the event-driven rewrite targets:
//
//   - dense-chain: a serial dependency chain keeps the window full of
//     waiting uops while only one can issue per cycle — the worst case for a
//     poll-everything issue loop, the best case for dependency-driven wakeup.
//   - wide-independent: maximum issue parallelism; every scanned uop issues,
//     so polling and event-driven costs converge.
//   - loadstore-heavy: disambiguation traffic with memory latency; stresses
//     the store ring and the load-wakeup path.
//   - idle-in-flight: a window full of long-latency divides that saturate
//     one non-pipelined unit; almost every cycle completes and issues
//     nothing, so per-cycle cost must track events, not occupancy.
//
// Before/after numbers are recorded in BENCH_engine.json
// (cmd/parrotbench -enginebench).

// benchRun drives prog to drain, reporting ns/cycle and cycles/op.
func benchRun(b *testing.B, e *Engine, prog []isa.Uop, addrs []uint64) {
	b.Helper()
	var cycles uint64
	isa.Decode(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		drive(e, prog, addrs)
		cycles += e.Stats.Cycles
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

func BenchmarkEngineCycle(b *testing.B) {
	b.Run("dense-chain", func(b *testing.B) {
		var prog []isa.Uop
		for i := 0; i < 2000; i++ {
			prog = append(prog, alu(1, 1, 2)) // fully serial
		}
		benchRun(b, New(Narrow(), nil), prog, nil)
	})

	b.Run("wide-independent", func(b *testing.B) {
		var prog []isa.Uop
		for i := 0; i < 2000; i++ {
			prog = append(prog, alu(i%8, 8+i%4, 12+i%4))
		}
		benchRun(b, New(Narrow(), nil), prog, nil)
	})

	b.Run("loadstore-heavy", func(b *testing.B) {
		var prog []isa.Uop
		var addrs []uint64
		for i := 0; i < 2000; i++ {
			switch i % 4 {
			case 0:
				st := isa.NewUop(isa.OpStore)
				st.Src[0] = isa.GPR(2)
				st.Src[1] = isa.GPR(i % 8)
				prog = append(prog, st)
				addrs = append(addrs, uint64(0x1000+(i%16)*64))
			case 1, 2:
				ld := isa.NewUop(isa.OpLoad)
				ld.Dst[0] = isa.GPR(i % 8)
				ld.Src[0] = isa.GPR(2)
				prog = append(prog, ld)
				addrs = append(addrs, uint64(0x1000+((i+3)%16)*64))
			default:
				prog = append(prog, alu(i%8, 8+i%4, 12+i%4))
				addrs = append(addrs, 0)
			}
		}
		lat := func(addr uint64, write bool) int { return int(addr>>6) % 5 }
		benchRun(b, New(Narrow(), lat), prog, addrs)
	})

	b.Run("idle-in-flight", func(b *testing.B) {
		// 64 independent divides on one non-pipelined unit: the window stays
		// full while ~11/12 cycles have no completion, no issue, no commit.
		var prog []isa.Uop
		for i := 0; i < 64; i++ {
			d := isa.NewUop(isa.OpDiv)
			d.Dst[0] = isa.GPR(i % 8)
			d.Src[0] = isa.GPR(8)
			d.Src[1] = isa.GPR(9)
			prog = append(prog, d)
		}
		benchRun(b, New(Narrow(), nil), prog, nil)
	})
}

// BenchmarkEngineIdleScaling pins the event-driven property directly: the
// per-cycle cost of a window full of stalled uops must not grow with the
// number in flight. Each sub-benchmark keeps n uops in the ROB behind a
// divide bottleneck; ns/cycle should be flat across n for an event-driven
// kernel and linear in n for a polling one.
func BenchmarkEngineIdleScaling(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(sizeName(n), func(b *testing.B) {
			var prog []isa.Uop
			for i := 0; i < n; i++ {
				d := isa.NewUop(isa.OpDiv)
				d.Dst[0] = isa.GPR(i % 8)
				d.Src[0] = isa.GPR(8)
				d.Src[1] = isa.GPR(9)
				prog = append(prog, d)
			}
			benchRun(b, New(Narrow(), nil), prog, nil)
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 8:
		return "inflight-8"
	case 32:
		return "inflight-32"
	default:
		return "inflight-128"
	}
}
