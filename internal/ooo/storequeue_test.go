package ooo

import (
	"math/rand"
	"testing"

	"parrot/internal/isa"
)

// TestStoreRetirementOrder is the regression test for the O(n) store-queue
// deletion fix: the in-flight store list is now a ring buffer whose front is
// popped at commit, which is only correct if stores retire strictly in
// program order. The test interleaves stores with variable-latency work
// (divides, dependent chains, loads with extra memory latency) so store
// completion times are thoroughly out of order, then verifies every store
// retires, in order, and the ring drains.
func TestStoreRetirementOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lat := func(addr uint64, write bool) int {
		// Deterministic but irregular extra latency.
		return int(addr>>3) % 7
	}
	e := New(Narrow(), lat)

	var storeHandles []Handle
	dispatched := 0
	for dispatched < 400 {
		for i := 0; i < e.Config().Width && e.CanDispatch(); i++ {
			var u isa.Uop
			switch rng.Intn(5) {
			case 0: // store
				u = isa.NewUop(isa.OpStore)
				u.Src[0] = isa.GPR(rng.Intn(16))
				u.Src[1] = isa.GPR(rng.Intn(16))
				h := dispatch(e, u, uint64(rng.Intn(64)*8), true, false)
				storeHandles = append(storeHandles, h)
			case 1: // slow divide feeding later work
				u = isa.NewUop(isa.OpDiv)
				u.Dst[0] = isa.GPR(rng.Intn(16))
				u.Src[0] = isa.GPR(rng.Intn(16))
				u.Src[1] = isa.GPR(rng.Intn(16))
				dispatch(e, u, 0, true, false)
			case 2: // load that may alias a pending store
				u = isa.NewUop(isa.OpLoad)
				u.Dst[0] = isa.GPR(rng.Intn(16))
				u.Src[0] = isa.GPR(rng.Intn(16))
				dispatch(e, u, uint64(rng.Intn(64)*8), true, false)
			default:
				u = isa.NewUop(isa.OpAdd)
				u.Dst[0] = isa.GPR(rng.Intn(16))
				u.Src[0] = isa.GPR(rng.Intn(16))
				u.Src[1] = isa.GPR(rng.Intn(16))
				dispatch(e, u, 0, true, false)
			}
			dispatched++
		}
		e.Cycle()

		// The ring front must always be the oldest in-flight store.
		if e.storeCnt > 0 {
			front := e.stores[e.storeHead]
			for i := 1; i < e.storeCnt; i++ {
				if e.stores[(e.storeHead+i)&e.storeMask] <= front {
					t.Fatalf("store ring out of program order at cycle %d", e.Now())
				}
			}
			if e.Retired(front) {
				t.Fatalf("retired store %d still at ring front", front)
			}
		}
	}
	e.Drain()

	if e.StoreQueueLen() != 0 {
		t.Fatalf("%d stores left in ring after drain", e.StoreQueueLen())
	}
	for _, h := range storeHandles {
		if !e.Retired(h) {
			t.Fatalf("store %d never retired", h)
		}
	}
}

// TestStoreQueueWrapAround forces the ring indices to wrap several times.
func TestStoreQueueWrapAround(t *testing.T) {
	e := New(Narrow(), nil)
	total := 4 * len(e.stores) // several full wraps of the ring
	for i := 0; i < total; i++ {
		for !e.CanDispatch() {
			e.Cycle()
		}
		st := isa.NewUop(isa.OpStore)
		st.Src[0] = isa.GPR(1)
		st.Src[1] = isa.GPR(2)
		dispatch(e, st, uint64(i*8), true, false)
	}
	e.Drain()
	if e.StoreQueueLen() != 0 {
		t.Fatalf("ring did not drain: %d left", e.StoreQueueLen())
	}
	if e.Stats.UopsCommitted != uint64(total) {
		t.Fatalf("committed %d of %d stores", e.Stats.UopsCommitted, total)
	}
}

// TestEngineResetMatchesFresh runs a workload, resets, reruns and compares
// against a fresh engine: the Reset protocol must be bit-identical.
func TestEngineResetMatchesFresh(t *testing.T) {
	run := func(e *Engine) Stats {
		rng := rand.New(rand.NewSource(99))
		for n := 0; n < 300; n++ {
			for i := 0; i < e.Config().Width && e.CanDispatch(); i++ {
				u := isa.NewUop(isa.OpAdd)
				if rng.Intn(4) == 0 {
					u = isa.NewUop(isa.OpStore)
					u.Src[0] = isa.GPR(rng.Intn(16))
					u.Src[1] = isa.GPR(rng.Intn(16))
					dispatch(e, u, uint64(rng.Intn(512)), true, false)
					continue
				}
				u.Dst[0] = isa.GPR(rng.Intn(16))
				u.Src[0] = isa.GPR(rng.Intn(16))
				u.Src[1] = isa.GPR(rng.Intn(16))
				dispatch(e, u, 0, true, false)
			}
			e.Cycle()
		}
		e.Drain()
		return e.Stats
	}

	pooled := New(Narrow(), nil)
	_ = run(pooled) // dirty the engine
	pooled.Reset()
	got := run(pooled)

	fresh := New(Narrow(), nil)
	want := run(fresh)

	if got != want {
		t.Fatalf("reset engine diverged from fresh:\n got %+v\nwant %+v", got, want)
	}
}
