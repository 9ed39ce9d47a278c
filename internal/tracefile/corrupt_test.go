package tracefile

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"parrot/internal/isa"
	"parrot/internal/workload"
)

// capture returns a valid gzip trace of n records as raw bytes.
func capture(t *testing.T, n int) []byte {
	t.Helper()
	p, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	var buf bytes.Buffer
	if err := Capture(&buf, p, n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// offsets computes section boundaries of a valid trace file by walking the
// same layout the reader parses: fixed header, static table (19 bytes per
// instruction + 19 per uop), u64 dynamic count, then records.
func offsets(t *testing.T, data []byte) (staticStart, dynCountOff, dynStart int) {
	t.Helper()
	nameLen := int(binary.LittleEndian.Uint16(data[12:14]))
	staticStart = 8 + 4 + 2 + nameLen + 1 + 4 // magic, version, name, suite, nStatic
	nStatic := int(binary.LittleEndian.Uint32(data[staticStart-4 : staticStart]))
	off := staticStart
	for i := 0; i < nStatic; i++ {
		nuops := int(data[off+18]) // pc u64, size u8, kind u8, target u64, nuops u8
		off += 19 + 19*nuops       // per uop: 11-byte header + i64 imm
	}
	return staticStart, off, off + 8
}

// TestHeaderAndStaticCorruptionRejected is the reader's fault-injection
// table for damage NewReader itself must catch: every corruption mode must
// produce a parse error, never a silently wrong static table.
func TestHeaderAndStaticCorruptionRejected(t *testing.T) {
	valid := capture(t, 300)
	staticStart, _, _ := offsets(t, valid)

	cases := []struct {
		name    string
		errPart string // substring the error must carry ("" = any error)
		corrupt func(b []byte) []byte
	}{
		{"flipped_magic_byte", "magic", func(b []byte) []byte {
			b[3] ^= 0xFF
			return b
		}},
		{"future_version", "version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], Version+1)
			return b
		}},
		{"truncated_name", "", func(b []byte) []byte {
			return b[:13] // cuts inside the name length/body
		}},
		{"suite_out_of_range", "suite", func(b []byte) []byte {
			nameLen := int(binary.LittleEndian.Uint16(b[12:14]))
			b[14+nameLen] = uint8(workload.NumSuites)
			return b
		}},
		{"truncated_mid_static_table", "static", func(b []byte) []byte {
			return b[:staticStart+5] // cuts inside the first static instruction
		}},
		{"static_kind_out_of_range", "kind", func(b []byte) []byte {
			b[staticStart+9] = 0xFF // kind u8 follows pc u64 + size u8
			return b
		}},
		{"uop_opcode_out_of_range", "opcode", func(b []byte) []byte {
			// First uop header starts after pc(8)+size(1)+kind(1)+target(8)+nuops(1).
			b[staticStart+19] = 0xFF
			return b
		}},
		{"uop_cond_out_of_range", "condition", func(b []byte) []byte {
			b[staticStart+19+1] = uint8(isa.NumConds) // header: op, cond, dst[2], src[4], subops[2], taken
			return b
		}},
		{"uop_dst_register_out_of_range", "register", func(b []byte) []byte {
			b[staticStart+19+2] = isa.NumRegs
			return b
		}},
		{"uop_src_register_out_of_range", "register", func(b []byte) []byte {
			// 0x40 once indexed past the OOO engine's rename table.
			b[staticStart+19+4] = 0x40
			return b
		}},
		{"uop_subop_out_of_range", "sub-op", func(b []byte) []byte {
			b[staticStart+19+8] = uint8(isa.NumOps)
			return b
		}},
		{"missing_dynamic_count", "", func(b []byte) []byte {
			_, dynCountOff, _ := offsets(t, b)
			return b[:dynCountOff+3] // cuts inside the u64 record count
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.corrupt(append([]byte(nil), valid...))
			_, err := NewReader(bytes.NewReader(b))
			if err == nil {
				t.Fatal("corrupt trace accepted")
			}
			if tc.errPart != "" && !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}
}

// TestDynamicCorruptionSurfacedByErr covers damage past the header: the
// reader streams records, so these faults surface through Next returning
// false early and Err() reporting the cause — the contract parrotsim's
// -tracefile path checks after replay.
func TestDynamicCorruptionSurfacedByErr(t *testing.T) {
	valid := capture(t, 300)
	_, _, dynStart := offsets(t, valid)

	cases := []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"record_index_out_of_range", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[dynStart:dynStart+4], 0xFFFFFFFF)
			return b
		}},
		{"truncated_mid_record", func(b []byte) []byte {
			return b[:len(b)-3]
		}},
		{"overclaimed_record_count", func(b []byte) []byte {
			// The header promises more records than the file carries.
			n := binary.LittleEndian.Uint64(b[dynStart-8 : dynStart])
			binary.LittleEndian.PutUint64(b[dynStart-8:dynStart], n*2)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.corrupt(append([]byte(nil), valid...))
			tr, err := NewReader(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("header should parse, got %v", err)
			}
			n := 0
			for {
				if _, ok := tr.Next(); !ok {
					break
				}
				n++
			}
			if tr.Err() == nil {
				t.Fatalf("corrupt dynamic section not surfaced after %d records", n)
			}
		})
	}
}

// TestValidTraceHasNoErr guards the inverse: a clean replay must finish
// with Err() == nil and exactly the promised record count, so the error
// paths above cannot be satisfied by a reader that always errors.
func TestValidTraceHasNoErr(t *testing.T) {
	valid := capture(t, 300)
	tr, err := NewReader(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
		n++
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("replayed %d records, want 300", n)
	}
	if tr.Remaining() != 0 {
		t.Fatalf("remaining = %d after full replay", tr.Remaining())
	}
}
