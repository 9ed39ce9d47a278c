package tracefile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	p, _ := workload.ByName("gzip")
	var buf bytes.Buffer
	if err := Capture(&buf, p, 5000); err != nil {
		t.Fatal(err)
	}

	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "gzip" || tr.Suite != workload.SpecInt {
		t.Errorf("header = %s/%v", tr.Name, tr.Suite)
	}
	if tr.Remaining() != 5000 {
		t.Fatalf("remaining = %d", tr.Remaining())
	}

	// Replay must be bit-identical to the original stream.
	prog := workload.Generate(p)
	orig := workload.NewStream(prog, 5000)
	n := 0
	for {
		want, ok1 := orig.Next()
		got, ok2 := tr.Next()
		if ok1 != ok2 {
			t.Fatalf("length mismatch at %d", n)
		}
		if !ok1 {
			break
		}
		if got.Taken != want.Taken || got.NextPC != want.NextPC ||
			got.MemAddr != want.MemAddr || got.EpisodeEnd != want.EpisodeEnd {
			t.Fatalf("record %d differs: %+v vs %+v", n, got, want)
		}
		if got.Inst.PC != want.Inst.PC || len(got.Inst.Uops) != len(want.Inst.Uops) {
			t.Fatalf("static inst %d differs", n)
		}
		for k := range want.Inst.Uops {
			if got.Inst.Uops[k] != want.Inst.Uops[k] {
				t.Fatalf("uop %d/%d differs: %v vs %v", n, k, got.Inst.Uops[k], want.Inst.Uops[k])
			}
		}
		n++
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticDeduplication(t *testing.T) {
	p, _ := workload.ByName("swim") // tight loops: heavy static reuse
	var buf bytes.Buffer
	if err := Capture(&buf, p, 8000); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Statics()) >= 8000/4 {
		t.Errorf("static table %d entries for 8000 dynamic — dedup broken", len(tr.Statics()))
	}
}

// TestSimulateFromTraceFileMatchesDirectRun replays a capture longer than
// one of the run driver's recording chunks and requires every result
// field, the labels the file carries included, to equal a direct run's.
func TestSimulateFromTraceFileMatchesDirectRun(t *testing.T) {
	p, _ := workload.ByName("flash")
	n := 100_000

	var buf bytes.Buffer
	if err := Capture(&buf, p, n); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	m := core.New(config.Get(config.TON))
	prof := workload.Profile{Name: tr.Name, Suite: tr.Suite}
	fromFile := m.RunSourceWarm(tr, prof, int(float64(n)*core.WarmupFraction))
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	direct := core.RunWarm(config.Get(config.TON), p, n)

	if !reflect.DeepEqual(fromFile, direct) {
		t.Errorf("trace-file replay differs from the direct run:\n file:   %+v\n direct: %+v", fromFile, direct)
	}
}

// TestNextAllocatesNothing pins the reader's streaming half to zero heap
// allocations per record, so replaying a long capture makes no garbage and
// its peak memory does not grow with the trace length.
func TestNextAllocatesNothing(t *testing.T) {
	p, _ := workload.ByName("gzip")
	var buf bytes.Buffer
	if err := Capture(&buf, p, 2000); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(1000, func() { tr.Next() }); a != 0 {
		t.Errorf("Next allocates %.1f times per record", a)
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
}

func TestBadInputsRejected(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short magic": []byte("PAR"),
		"bad magic":   []byte("NOTATRACEFILE AT ALL........."),
	}
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Corrupt the version field of a valid file.
	p, _ := workload.ByName("gzip")
	var buf bytes.Buffer
	if err := Capture(&buf, p, 100); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8] = 0xFF // version LSB
	if _, err := NewReader(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("corrupted version accepted: %v", err)
	}
}

func TestTruncatedDynamicSection(t *testing.T) {
	p, _ := workload.ByName("gzip")
	var buf bytes.Buffer
	if err := Capture(&buf, p, 500); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-10]
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err) // header and statics are intact
	}
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
	}
	if tr.Err() == nil {
		t.Error("truncated stream must surface an error")
	}
}
