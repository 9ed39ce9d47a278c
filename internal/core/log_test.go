package core

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"parrot/internal/config"
	"parrot/internal/trace"
	"parrot/internal/workload"
)

// edgeBudgets put the warm-up boundary both inside and outside a pending
// joined segment, and make the final Flush emit one or two segments.
var edgeBudgets = []struct {
	app string
	n   int
}{
	{"gzip", 6000},  // joined segment pending at the boundary; Flush emits 2
	{"swim", 10000}, // joined segment pending at the boundary; Flush emits 1
	{"gcc", 11000},  // boundary between segments; Flush emits 2
	{"swim", 7000},
}

// resultHash is the SHA-256 of every field of a result.
func resultHash(r *Result) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", *r))))
}

// TestDriverGolden pins single runs to the results of the streaming driver
// that fed each machine from its own selector before the chunked log
// driver replaced it: a hash of every Result field for the seven models at
// the edge budgets, and for one run without warm-up.
func TestDriverGolden(t *testing.T) {
	golden := []struct {
		model config.ModelID
		app   string
		n     int
		hash  string
	}{
		{config.N, "gzip", 6000, "3b4825eedebc854bc171a2172077999eb202cb1ac2eaa7a8d6a11b471f28f0ba"},
		{config.TN, "gzip", 6000, "fe2c61324288795c1cbee439f1a820ba51edd2d06d313fc3bd07f2865d3de32a"},
		{config.TON, "gzip", 6000, "592fe01b7d70c83f7ef7b7351093f23097fb6ec91b7b7198ee88d8b375a3e830"},
		{config.W, "gzip", 6000, "a8036bc768a8cb46b98d49625e2dd83bf529f4fc3c25fa33642408fe998e85cf"},
		{config.TW, "gzip", 6000, "4d698c566a7939ced0e3fe642007c004322f89fa9e2ff2867920e76ed371d2a7"},
		{config.TOW, "gzip", 6000, "772f7c4a92ba47687f30b0cc51bc4acb852a1d2635893e534ae0b705de3f11b2"},
		{config.TOS, "gzip", 6000, "aa653bfe2f668c13180249d44e9567e5894197a5fc01c9c735a77529bc42b6af"},
		{config.N, "swim", 10000, "504087adb57f25292561ee091f580b4ebfc3e472b982ce7fa467fe6c146b5fbc"},
		{config.TN, "swim", 10000, "1a54c9342c610af39fe3b473fb593683f8d5101530947c5dbfadb62f35ec6d5c"},
		{config.TON, "swim", 10000, "a4a4519edc1e93dab9ba6c99aa8f00e7eab133bc038aa8999a808a6a30f3bba5"},
		{config.W, "swim", 10000, "9ff660cb638a77bba8e3c9026e4b78a7ed685545ef9e2c91b4bdcbe7a545b63c"},
		{config.TW, "swim", 10000, "3c84506cf5c6d57ac0093f156f7e0d375402416f7568eb5cc87725b0b757f771"},
		{config.TOW, "swim", 10000, "1e191c43d28eaf7404ba22d7ae2168d92dc52383ae35e0ff175fc2e6cae5327b"},
		{config.TOS, "swim", 10000, "f6dafc0a8100c876f5200811a77bf8336a78b6ab5c18004780fc16767a5d1fb7"},
		{config.N, "gcc", 11000, "5e89aabe28a491525ddbc98fe698433914d3e93f1c15f69ee092604e18cc43b6"},
		{config.TN, "gcc", 11000, "26234a6930bd26a69bc645a01e3b215542edb88aa6a3b452badf0a751cb19bad"},
		{config.TON, "gcc", 11000, "35748451a508ac898d8bc85b7e8a1af060887d1336591a079ba7292f057daf67"},
		{config.W, "gcc", 11000, "65244cc59145572b4ce8d0976e227d63803f79fb338ae53f16d7d3147b5ae37b"},
		{config.TW, "gcc", 11000, "d7b73686d72374fd78878ae53c0986a48158ceeb2ecf9883eb93ef550a1f4536"},
		{config.TOW, "gcc", 11000, "5b7cc9ae42a7514427e66a734269056bf50412c64dbafaf188439de318668f49"},
		{config.TOS, "gcc", 11000, "7299b1fc1ed9d211f20dfa6e93b51c0252e22fbb1d42cc2c4cc7233f1bc9fe40"},
		{config.N, "swim", 7000, "a71b34467944d84d4bf12d580b035036f5c6479aaa6ce8eea111a561ac669fed"},
		{config.TN, "swim", 7000, "2596f330e8607306dfd011ee432085cb2f31112bd6bc4217f62c0d54b4bddd9f"},
		{config.TON, "swim", 7000, "74048722b5e78f3ef3295de101f19a2e9fafde1b0b3b2003dd3de58681649818"},
		{config.W, "swim", 7000, "fd1c820db8a4ace4c566610e963c26b6bab7a6612c5e61d0ba29740f5c6ac535"},
		{config.TW, "swim", 7000, "27165fe4e6aec11646c35e9cb46bc8cb041814349ac233991a1476fca07e605b"},
		{config.TOW, "swim", 7000, "eb328c8b6ee6c5cb42eb3e836611b34d740fdceb2f69e97dfbf6e07a02faf1ff"},
		{config.TOS, "swim", 7000, "73316faf7dedce7fcce1531c78fc56ec07400494a00f441ccd5e6b37a5ee92f3"},
	}
	for _, g := range golden {
		prof, _ := workload.ByName(g.app)
		if got := resultHash(RunWarmFresh(config.Get(g.model), prof, g.n)); got != g.hash {
			t.Errorf("%s/%s n=%d: result hash %s, want %s", g.model, g.app, g.n, got, g.hash)
		}
	}
	prof, _ := workload.ByName("perlbmk")
	if got := resultHash(Run(config.Get(config.TOW), prof, 12000)); got != "5f7886a47c90f3b605a56e95525b1808a046a973dfe3b8d46fbd73753ba6b14e" {
		t.Errorf("Run without warm-up: result hash %s changed", got)
	}
}

// checkSegmentFacts checks the log's copies of the selector's segment
// facts: each segment's uop and memory-uop counts, joined segments
// included, equal a recount over its instructions in the arena.
func checkSegmentFacts(t *testing.T, l *SelectionLog) {
	t.Helper()
	joined := 0
	for _, seg := range l.segs {
		uops, mem := 0, 0
		for _, d := range seg.Insts {
			uops += len(d.Inst.Uops)
			for _, u := range d.Inst.Uops {
				if u.Op.IsMem() {
					mem++
				}
			}
		}
		if uops != seg.Uops || mem != seg.MemUops {
			t.Fatalf("%s: logged segment %v counts %d uops, %d memory uops; recount %d, %d",
				l.prof.Name, seg.TID, seg.Uops, seg.MemUops, uops, mem)
		}
		if seg.Joined > 1 {
			joined++
		}
	}
	if joined == 0 {
		t.Fatalf("%s: the log holds no joined segment", l.prof.Name)
	}
}

// segStart returns the arena offset of a whole recording's i-th segment:
// the number of instructions fed before the segment began.
func segStart(l *SelectionLog, i int) int {
	n := 0
	for _, s := range l.segs[:i] {
		n += len(s.Insts)
	}
	return n
}

// TestChunkEdges is the equivalence gate of the one run driver: for every
// model, recording and replaying a run in chunks of 1, 7 and 4096
// instructions gives exactly the result of one unbounded recording
// replayed whole. reflect.DeepEqual compares every Result field, which is
// stricter than the result digest. Each model keeps one machine from a
// pool, Reset between runs, so the comparison also covers dirtied-then-
// Reset machines. The test checks that the edges it is about really occur:
// a joined segment is pending at the warm-up boundary, the first segment
// after the reset began in a chunk before the warm-up instruction's, and a
// joined segment spans a chunk edge.
func TestChunkEdges(t *testing.T) {
	limits := []int{1, 7, 4096}
	pool := NewPool()
	models := config.All()
	machines := make([]*Machine, len(models))
	for i, model := range models {
		machines[i] = pool.Get(model)
	}
	var whole, chunk SelectionLog
	joinedAtWarm, warmStraddles, joinStraddles := false, false, false
	for _, c := range edgeBudgets {
		prof, ok := workload.ByName(c.app)
		if !ok {
			t.Fatalf("unknown app %s", c.app)
		}
		warm := int(float64(c.n) * WarmupFraction)
		prog := workload.GenerateCached(prof)
		whole.Record(workload.NewStream(prog, c.n), prof, c.n, warm)
		checkSegmentFacts(t, &whole)

		first := segStart(&whole, whole.warm)
		joinedAtWarm = joinedAtWarm || (whole.segs[whole.warm].Joined > 1 && first < warm)
		for _, limit := range limits {
			warmStraddles = warmStraddles || first/limit < (warm-1)/limit
			off := 0
			for _, s := range whole.segs {
				end := off + len(s.Insts)
				joinStraddles = joinStraddles || (s.Joined > 1 && off/limit < (end-1)/limit)
				off = end
			}
		}

		for i, m := range machines {
			m.Reset()
			want := m.ReplayWarm(&whole)
			for _, limit := range limits {
				m.Reset()
				got := m.run(&chunk, workload.NewStream(prog, c.n), prof, warm, limit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s n=%d: chunks of %d diverged from the whole log:\n chunked: %+v\n whole:   %+v",
						models[i].ID, c.app, c.n, limit, got, want)
				}
			}
		}
	}
	if !joinedAtWarm || !warmStraddles || !joinStraddles {
		t.Fatalf("budgets no longer cover the edges: joined segment pending at warm-up %v, warm-up boundary across a chunk edge %v, joined segment across a chunk edge %v",
			joinedAtWarm, warmStraddles, joinStraddles)
	}
	for _, m := range machines {
		pool.Put(m)
	}
}

// TestChunkArenaBounded drives a 300k-instruction stream in chunks of
// 4096: the log's arena never grows past one chunk plus the pending and
// in-progress segments the selector carries across an edge. The arena only
// grows, so its final capacity is the run's largest. A 50k RunWarmOn, the
// serving layer's cell, is held to the same bound with its budget as the
// chunk.
func TestChunkArenaBounded(t *testing.T) {
	const n, limit = 300_000, 4096
	prof, _ := workload.ByName("gcc")
	var l SelectionLog
	src := workload.NewStream(workload.GenerateCached(prof), n)
	res := New(config.Get(config.N)).run(&l, src, prof, int(n*WarmupFraction), limit)
	if c, bound := cap(l.insts), limit+2*trace.MaxUops; c > bound {
		t.Errorf("arena capacity %d after %d instructions in chunks of %d; bound %d", c, n, limit, bound)
	}
	if res.Insts == 0 {
		t.Fatal("empty run")
	}

	// A single run below one chunk sizes its log to its own budget: with
	// the free list emptied, the log RunWarmOn draws is a new one, and it
	// holds no more than the budget plus the carried segments. A run one
	// instruction longer reuses that log and grows it to a whole chunk at
	// once, so a creeping budget does not reallocate it on every run.
	const budget = 50_000
	runLogs.Lock()
	saved := runLogs.free
	runLogs.free = nil
	runLogs.Unlock()
	defer func() {
		runLogs.Lock()
		runLogs.free = saved
		runLogs.Unlock()
	}()
	m := New(config.Get(config.N))
	for _, n := range []int{budget, budget + 1} {
		m.Reset()
		RunWarmOn(m, prof, n)
		runLogs.Lock()
		free := runLogs.free
		runLogs.Unlock()
		if len(free) != 1 {
			t.Fatalf("free list holds %d logs after one run at a time, want 1", len(free))
		}
		c := cap(free[0].insts)
		switch {
		case n == budget && c > budget+2*trace.MaxUops:
			t.Errorf("arena capacity %d after a %d-instruction RunWarmOn; bound %d", c, n, budget+2*trace.MaxUops)
		case n > budget && c != chunkInsts+2*trace.MaxUops:
			t.Errorf("arena capacity %d after a %d-instruction RunWarmOn on a %d-instruction log; want a whole chunk, %d",
				c, n, budget, chunkInsts+2*trace.MaxUops)
		}
	}
}
