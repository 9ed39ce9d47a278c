package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the packages the ledger reports CPU self time for, as
// cpu.<name>; matching is by import-path prefix, first match wins, and
// everything else folds into cpu.other.
var cpuBuckets = []struct{ name, prefix string }{
	{"ooo", "parrot/internal/ooo"},
	{"core", "parrot/internal/core"},
	{"mem", "parrot/internal/mem"},
	{"trace", "parrot/internal/trace"},
	{"workload", "parrot/internal/workload"},
	{"branch", "parrot/internal/branch"},
	{"opt", "parrot/internal/opt"},
	{"tcache", "parrot/internal/tcache"},
	{"telemetry", "parrot/internal/telemetry"},
	{"serve.api", "parrot/internal/serve/api"},
	{"serve.sched", "parrot/internal/serve/sched"},
	{"serve.cache", "parrot/internal/serve/cache"},
	{"cluster", "parrot/internal/cluster"},
	{"net.http", "net/http"},
	{"encoding.json", "encoding/json"},
	{"crypto.sha256", "crypto/sha256"},
	{"crypto.sha256", "crypto/internal/fips140/sha256"},
	{"runtime", "runtime"},
	{"runtime", "internal/runtime"},
}

// cpuShares folds a gzipped pprof CPU profile by the package of each
// sample's leaf frame and returns every bucket's share of CPU time (all
// zero for a window too short to take a sample).
func cpuShares(profile []byte) (map[string]float64, error) {
	self, err := leafSelfTime(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"other": 0}
	for _, b := range cpuBuckets {
		out[b.name] = 0
	}
	total := 0.0
	for fn, v := range self {
		total += v
		out[bucketOf(funcPackage(fn))] += v
	}
	for k := range out {
		out[k] = ratio(out[k], total)
	}
	return out, nil
}

func bucketOf(pkg string) string {
	for _, b := range cpuBuckets {
		if pkg == b.prefix || strings.HasPrefix(pkg, b.prefix+"/") {
			return b.name
		}
	}
	return "other"
}

// funcPackage extracts the import path from a Go symbol such as
// "parrot/internal/ooo.(*Engine).tick" or "sync/atomic.(*Pointer[...]).Load".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// leafSelfTime decodes the profile.proto subset a Go CPU profile uses and
// sums the last sample value (CPU nanoseconds) by leaf function name. For
// inlined frames a location's first line is the innermost function.
func leafSelfTime(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], vals[len(vals)-1]})
			}
		case 4: // Location
			var id, fn uint64
			first := true
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					if !first {
						return nil
					}
					first = false
					return eachField(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := "?"
		if idx, ok := funcName[locFunc[s.loc]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[name] += float64(s.value)
	}
	return out, nil
}

// eachField walks one protobuf message, passing varint fields in v and
// length-delimited fields in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding:
// one varint per field, or packed into a length-delimited run.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
