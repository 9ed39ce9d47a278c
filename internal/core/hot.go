package core

import (
	"parrot/internal/energy"
	"parrot/internal/isa"
	"parrot/internal/trace"
)

// hotSupplyFree reports whether the trace-cache read port can supply one
// more uop this cycle.
func (m *Machine) hotSupplyFree() bool {
	if m.supCycle != m.clock {
		return true
	}
	return m.supUsed < m.traceFetchUops
}

// useHotSupply consumes trace-fetch bandwidth for one uop.
func (m *Machine) useHotSupply() {
	if m.supCycle != m.clock {
		m.supCycle = m.clock
		m.supUsed = 0
	}
	m.supUsed++
	m.countsHot.Add(energy.EvTCReadUop, 1)
}

// execHot replays a resident trace on the hot pipeline. The trace supplies
// decoded (possibly optimized) uops at trace-fetch bandwidth, bypassing the
// IA32 decoders entirely; the segment instance supplies the dynamic memory
// addresses — the k-th memory uop of the trace consumes the k-th address.
func (m *Machine) execHot(seg *trace.Segment, tr *trace.Trace) {
	m.hotInsts += uint64(seg.NumInsts())

	// Committed branches keep training the direction predictor even when
	// executed hot, so occasional cold executions of the same code are not
	// handicapped by stale tables. Lookups and mispredictions are not
	// counted: the hot pipeline is steered by the trace predictor.
	//
	// The same pass collects the instance's memory addresses in uop order
	// (each instruction's decoded MemUops), into a scratch buffer reused
	// across segments (the steady-state hot loop allocates nothing).
	addrs := m.addrScratch[:0]
	for i := range seg.Insts {
		d := &seg.Insts[i]
		if d.Inst.Kind == isa.KindBranch {
			m.bp.Update(d.Inst.PC, d.Taken)
			m.counts.Add(energy.EvBPUpdate, 1)
		}
		for k := d.Inst.MemUops; k > 0; k-- {
			addrs = append(addrs, d.MemAddr)
		}
	}
	m.addrScratch = addrs

	// Trace-cache read pipeline startup; back-to-back hot segments stream
	// without a bubble.
	if !m.lastSegHot {
		start := m.clock + 2
		for m.clock < start {
			m.tick()
		}
	}

	k := 0
	for i := range tr.Uops {
		for !m.hotSupplyFree() || m.dqLen() > m.hotDQLimit {
			// An exhausted supply budget frees after one tick, not at an
			// engine event, so only back-pressure may skip.
			if m.dqLen() > m.hotDQLimit {
				m.step()
			} else {
				m.tick()
			}
		}
		m.useHotSupply()
		it := m.dqAlloc()
		it.uop = tr.Uops[i]
		it.hot = true
		if tr.Uops[i].Op.IsMem() {
			it.memAddr = addrs[k]
			k++
		}
		if i == len(tr.Uops)-1 {
			it.traceEnd = true
		}
	}
	m.pendingTraceInsts = append(m.pendingTraceInsts, seg.NumInsts())

	if d := &seg.Insts[len(seg.Insts)-1]; d.EpisodeEnd {
		// The successor is unrelated code; the hot pipeline redirects just
		// like the cold one, and the next cold fetch re-primes its line.
		m.fetchStallUntil = maxU64(m.fetchStallUntil, m.clock+m.frontDepth/2)
		m.lastLine = ^uint64(0)
	}
}
