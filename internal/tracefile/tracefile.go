// Package tracefile defines a binary container for committed instruction
// streams, so the simulator can replay externally captured traces — the
// workflow of the paper's own trace-driven environment, where applications
// are captured once and simulated many times under different machine
// models.
//
// Format (little endian):
//
//	magic   [8]byte  "PARROTTR"
//	version u32      currently 1
//	name    u16 len + bytes
//	suite   u8
//	nStatic u32      static instruction table
//	  per instruction: pc u64, size u8, kind u8, target u64,
//	                   nuops u8, per uop: op, cond, dst[2], src[4],
//	                   subops[2], taken u8, imm i64
//	nDyn    u64      dynamic records
//	  per record: instIdx u32, flags u8 (bit0 taken, bit1 episodeEnd,
//	              bit2 hasMem), nextPC u64, memAddr u64 (only if hasMem)
//
// The static table is deduplicated: each distinct instruction is written
// once and referenced by index, exactly how the simulator shares static
// instructions between dynamic occurrences.
package tracefile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"parrot/internal/isa"
	"parrot/internal/workload"
)

var magic = [8]byte{'P', 'A', 'R', 'R', 'O', 'T', 'T', 'R'}

// Version is the current format version.
const Version = 1

const (
	flagTaken      = 1 << 0
	flagEpisodeEnd = 1 << 1
	flagHasMem     = 1 << 2
)

// Writer streams dynamic instructions into a trace file. Records buffer in
// memory until Close writes the file (the static table must be complete
// before the dynamic section's indices are final).
type Writer struct {
	w     *bufio.Writer
	name  string
	suite workload.Suite

	statics []*isa.Inst
	index   map[*isa.Inst]uint32
	dyn     []dynRecord
}

type dynRecord struct {
	inst    uint32
	flags   uint8
	nextPC  uint64
	memAddr uint64
}

// NewWriter prepares a trace file for the named application.
func NewWriter(w io.Writer, name string, suite workload.Suite) *Writer {
	return &Writer{
		w:     bufio.NewWriter(w),
		name:  name,
		suite: suite,
		index: make(map[*isa.Inst]uint32),
	}
}

// Add appends one committed instruction.
func (tw *Writer) Add(d workload.DynInst) {
	idx, ok := tw.index[d.Inst]
	if !ok {
		idx = uint32(len(tw.statics))
		tw.index[d.Inst] = idx
		tw.statics = append(tw.statics, d.Inst)
	}
	rec := dynRecord{inst: idx, nextPC: d.NextPC, memAddr: d.MemAddr}
	if d.Taken {
		rec.flags |= flagTaken
	}
	if d.EpisodeEnd {
		rec.flags |= flagEpisodeEnd
	}
	if d.MemAddr != 0 {
		rec.flags |= flagHasMem
	}
	tw.dyn = append(tw.dyn, rec)
}

func put(w io.Writer, v any) error { return binary.Write(w, binary.LittleEndian, v) }

// Close writes the complete file.
func (tw *Writer) Close() error {
	w := tw.w
	if err := put(w, magic); err != nil {
		return err
	}
	if err := put(w, uint32(Version)); err != nil {
		return err
	}
	if len(tw.name) > 0xFFFF {
		return fmt.Errorf("tracefile: name too long")
	}
	if err := put(w, uint16(len(tw.name))); err != nil {
		return err
	}
	if _, err := w.WriteString(tw.name); err != nil {
		return err
	}
	if err := put(w, uint8(tw.suite)); err != nil {
		return err
	}
	if err := put(w, uint32(len(tw.statics))); err != nil {
		return err
	}
	for _, in := range tw.statics {
		if err := writeInst(w, in); err != nil {
			return err
		}
	}
	if err := put(w, uint64(len(tw.dyn))); err != nil {
		return err
	}
	for _, r := range tw.dyn {
		if err := put(w, r.inst); err != nil {
			return err
		}
		if err := put(w, r.flags); err != nil {
			return err
		}
		if err := put(w, r.nextPC); err != nil {
			return err
		}
		if r.flags&flagHasMem != 0 {
			if err := put(w, r.memAddr); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

func writeInst(w io.Writer, in *isa.Inst) error {
	if err := put(w, in.PC); err != nil {
		return err
	}
	if err := put(w, in.Size); err != nil {
		return err
	}
	if err := put(w, uint8(in.Kind)); err != nil {
		return err
	}
	if err := put(w, in.Target); err != nil {
		return err
	}
	if len(in.Uops) > 0xFF {
		return fmt.Errorf("tracefile: instruction with %d uops", len(in.Uops))
	}
	if err := put(w, uint8(len(in.Uops))); err != nil {
		return err
	}
	for i := range in.Uops {
		u := &in.Uops[i]
		hdr := []uint8{
			uint8(u.Op), uint8(u.Cond),
			uint8(u.Dst[0]), uint8(u.Dst[1]),
			uint8(u.Src[0]), uint8(u.Src[1]), uint8(u.Src[2]), uint8(u.Src[3]),
			uint8(u.SubOps[0]), uint8(u.SubOps[1]),
			b2u8(u.Taken),
		}
		if err := put(w, hdr); err != nil {
			return err
		}
		if err := put(w, u.Imm); err != nil {
			return err
		}
	}
	return nil
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Capture runs an application's synthetic stream into a trace file.
func Capture(w io.Writer, prof workload.Profile, n int) error {
	if n <= 0 {
		n = prof.Instructions
	}
	prog := workload.Generate(prof)
	stream := workload.NewStream(prog, n)
	tw := NewWriter(w, prof.Name, prof.Suite)
	for {
		d, ok := stream.Next()
		if !ok {
			break
		}
		tw.Add(d)
	}
	return tw.Close()
}

// Reader replays a trace file as an instruction source (it implements
// core.InstSource).
type Reader struct {
	Name  string
	Suite workload.Suite

	statics []*isa.Inst
	r       *bufio.Reader
	left    uint64
	err     error
}

// NewReader parses the header and static table, leaving the dynamic section
// for streaming.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("tracefile: short header: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("tracefile: bad magic %q", m[:])
	}
	var ver uint32
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("tracefile: unsupported version %d", ver)
	}
	var nameLen uint16
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var suite uint8
	if err := binary.Read(br, binary.LittleEndian, &suite); err != nil {
		return nil, err
	}
	if suite >= uint8(workload.NumSuites) {
		return nil, fmt.Errorf("tracefile: bad suite %d", suite)
	}
	var nStatic uint32
	if err := binary.Read(br, binary.LittleEndian, &nStatic); err != nil {
		return nil, err
	}
	tr := &Reader{Name: string(name), Suite: workload.Suite(suite), r: br}
	for i := uint32(0); i < nStatic; i++ {
		in, err := readInst(br)
		if err != nil {
			return nil, fmt.Errorf("tracefile: static %d: %w", i, err)
		}
		tr.statics = append(tr.statics, in)
	}
	if err := binary.Read(br, binary.LittleEndian, &tr.left); err != nil {
		return nil, err
	}
	return tr, nil
}

func readInst(r io.Reader) (*isa.Inst, error) {
	in := &isa.Inst{}
	var kind uint8
	if err := binary.Read(r, binary.LittleEndian, &in.PC); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &in.Size); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
		return nil, err
	}
	if kind >= uint8(isa.NumInstKinds) {
		return nil, fmt.Errorf("bad kind %d", kind)
	}
	in.Kind = isa.InstKind(kind)
	if err := binary.Read(r, binary.LittleEndian, &in.Target); err != nil {
		return nil, err
	}
	var nuops uint8
	if err := binary.Read(r, binary.LittleEndian, &nuops); err != nil {
		return nil, err
	}
	for i := 0; i < int(nuops); i++ {
		var hdr [11]uint8
		if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
			return nil, err
		}
		var imm int64
		if err := binary.Read(r, binary.LittleEndian, &imm); err != nil {
			return nil, err
		}
		u := isa.Uop{
			Op:     isa.Op(hdr[0]),
			Cond:   isa.Cond(hdr[1]),
			Dst:    [isa.MaxDst]isa.Reg{isa.Reg(hdr[2]), isa.Reg(hdr[3])},
			Src:    [isa.MaxSrc]isa.Reg{isa.Reg(hdr[4]), isa.Reg(hdr[5]), isa.Reg(hdr[6]), isa.Reg(hdr[7])},
			SubOps: [2]isa.Op{isa.Op(hdr[8]), isa.Op(hdr[9])},
			Taken:  hdr[10] != 0,
			Imm:    imm,
		}
		if err := checkUop(&u); err != nil {
			return nil, err
		}
		in.Uops = append(in.Uops, u)
	}
	in.Decode()
	return in, nil
}

// checkUop rejects a uop carrying a byte the simulator would use as an
// out-of-range index: an opcode or fused sub-op past NumOps, a condition
// past NumConds, or an operand that is neither RegNone nor a real
// register (the rename table has NumRegs entries).
func checkUop(u *isa.Uop) error {
	if int(u.Op) >= isa.NumOps {
		return fmt.Errorf("bad opcode %d", u.Op)
	}
	if u.Cond >= isa.NumConds {
		return fmt.Errorf("bad condition %d", u.Cond)
	}
	for _, op := range u.SubOps {
		if int(op) >= isa.NumOps {
			return fmt.Errorf("bad sub-op %d", op)
		}
	}
	for _, regs := range [][]isa.Reg{u.Dst[:], u.Src[:]} {
		for _, r := range regs {
			if r != isa.RegNone && !r.Valid() {
				return fmt.Errorf("bad register %d", r)
			}
		}
	}
	return nil
}

// Next implements the instruction-source contract.
func (tr *Reader) Next() (workload.DynInst, bool) {
	if tr.left == 0 || tr.err != nil {
		return workload.DynInst{}, false
	}
	tr.left--
	var idx uint32
	var flags uint8
	if err := binary.Read(tr.r, binary.LittleEndian, &idx); err != nil {
		tr.err = err
		return workload.DynInst{}, false
	}
	if err := binary.Read(tr.r, binary.LittleEndian, &flags); err != nil {
		tr.err = err
		return workload.DynInst{}, false
	}
	var d workload.DynInst
	if int(idx) >= len(tr.statics) {
		tr.err = fmt.Errorf("tracefile: bad instruction index %d", idx)
		return workload.DynInst{}, false
	}
	d.Inst = tr.statics[idx]
	if err := binary.Read(tr.r, binary.LittleEndian, &d.NextPC); err != nil {
		tr.err = err
		return workload.DynInst{}, false
	}
	if flags&flagHasMem != 0 {
		if err := binary.Read(tr.r, binary.LittleEndian, &d.MemAddr); err != nil {
			tr.err = err
			return workload.DynInst{}, false
		}
	}
	d.Taken = flags&flagTaken != 0
	d.EpisodeEnd = flags&flagEpisodeEnd != 0
	return d, true
}

// Err reports a stream decoding error encountered by Next.
func (tr *Reader) Err() error { return tr.err }

// Remaining returns the number of dynamic records left.
func (tr *Reader) Remaining() uint64 { return tr.left }

// Statics returns the deduplicated static instruction table.
func (tr *Reader) Statics() []*isa.Inst { return tr.statics }
