package cache

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"parrot/internal/core"
	"parrot/internal/experiments"
)

// Disk entry format (little endian):
//
//	magic     [8]byte  "PARROTRC"
//	version   u32      currently 1
//	simVer    u32      experiments.SimVersion at write time
//	specLen   u16 + bytes   hex RunSpec digest (the content address)
//	resLen    u16 + bytes   hex ResultDigest of the payload's decoded result
//	payLen    u32 + bytes   canonical JSON of the core.Result
//
// Loads verify every layer: magic/version, the embedded spec digest against
// the requested one (a renamed or cross-linked file cannot satisfy the
// wrong key), and the result digest recomputed from the decoded payload (a
// flipped bit that still parses is caught semantically). Any failure
// expunges the file and reports a miss — the scheduler recomputes.

var diskMagic = [8]byte{'P', 'A', 'R', 'R', 'O', 'T', 'R', 'C'}

// DiskFormatVersion is the on-disk entry container version.
const DiskFormatVersion = 1

func (c *Cache) initDir() error {
	return os.MkdirAll(c.dir, 0o755)
}

func (c *Cache) entryPath(digest string) string {
	return filepath.Join(c.dir, digest+".prc")
}

// EncodeEntry serializes one disk entry. Exported for the store's
// fault-injection tests.
func EncodeEntry(specDigest, resDigest string, payload []byte) []byte {
	var b bytes.Buffer
	b.Write(diskMagic[:])
	var u32 [4]byte
	var u16 [2]byte
	put32 := func(v uint32) { binary.LittleEndian.PutUint32(u32[:], v); b.Write(u32[:]) }
	put16 := func(v uint16) { binary.LittleEndian.PutUint16(u16[:], v); b.Write(u16[:]) }
	put32(DiskFormatVersion)
	put32(experiments.SimVersion)
	put16(uint16(len(specDigest)))
	b.WriteString(specDigest)
	put16(uint16(len(resDigest)))
	b.WriteString(resDigest)
	put32(uint32(len(payload)))
	b.Write(payload)
	return b.Bytes()
}

// DecodeEntry parses and structurally validates one disk entry, returning
// the embedded spec digest, result digest and payload. It does not verify
// the result digest against the payload — VerifyEntry layers that on top.
func DecodeEntry(raw []byte) (specDigest, resDigest string, payload []byte, err error) {
	r := bytes.NewReader(raw)
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil || m != diskMagic {
		return "", "", nil, fmt.Errorf("cache: bad magic")
	}
	var ver, simVer uint32
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return "", "", nil, fmt.Errorf("cache: short header: %w", err)
	}
	if ver != DiskFormatVersion {
		return "", "", nil, fmt.Errorf("cache: unsupported entry version %d", ver)
	}
	if err := binary.Read(r, binary.LittleEndian, &simVer); err != nil {
		return "", "", nil, fmt.Errorf("cache: short header: %w", err)
	}
	if simVer != experiments.SimVersion {
		return "", "", nil, fmt.Errorf("cache: entry from sim version %d, running %d", simVer, experiments.SimVersion)
	}
	readStr := func() (string, error) {
		var n uint16
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	if specDigest, err = readStr(); err != nil {
		return "", "", nil, fmt.Errorf("cache: truncated spec digest: %w", err)
	}
	if resDigest, err = readStr(); err != nil {
		return "", "", nil, fmt.Errorf("cache: truncated result digest: %w", err)
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", "", nil, fmt.Errorf("cache: truncated payload length: %w", err)
	}
	// Check the claimed length against what is there before allocating: a
	// corrupt length must not cost a 4 GiB buffer.
	if int64(n) > int64(r.Len()) {
		return "", "", nil, fmt.Errorf("cache: truncated payload: %d of %d bytes", r.Len(), n)
	}
	payload = make([]byte, n)
	io.ReadFull(r, payload)
	return specDigest, resDigest, payload, nil
}

// VerifyEntry fully validates a raw disk entry against the requested spec
// digest: container structure, key match, payload decode, and the result
// digest recomputed from the decoded result. Returns the decoded result on
// success.
func VerifyEntry(raw []byte, wantSpecDigest string) (*core.Result, []byte, string, error) {
	specDigest, resDigest, payload, err := DecodeEntry(raw)
	if err != nil {
		return nil, nil, "", err
	}
	if specDigest != wantSpecDigest {
		return nil, nil, "", fmt.Errorf("cache: entry keyed %.12s, want %.12s", specDigest, wantSpecDigest)
	}
	res, err := decode(payload)
	if err != nil {
		return nil, nil, "", fmt.Errorf("cache: corrupt payload: %w", err)
	}
	if got := experiments.ResultDigest(res); got != resDigest {
		return nil, nil, "", fmt.Errorf("cache: result digest mismatch: got %.12s, stored %.12s", got, resDigest)
	}
	return res, payload, resDigest, nil
}

// diskGet loads and verifies one entry. Corrupt entries are expunged so
// they are rebuilt at most once.
func (c *Cache) diskGet(digest string) (*core.Result, []byte, string, bool) {
	// Chaos site "cache.disk.get": slow-disk latency, or a read fault that
	// degrades to a plain miss (the entry stays on disk).
	if c.chaos.Inject("cache.disk.get", digest) != nil {
		return nil, nil, "", false
	}
	raw, err := os.ReadFile(c.entryPath(digest))
	if err != nil {
		return nil, nil, "", false // absent (or unreadable): plain miss
	}
	res, payload, resDigest, err := VerifyEntry(raw, digest)
	if err != nil {
		c.mu.Lock()
		c.stats.DiskErrors++
		c.mu.Unlock()
		os.Remove(c.entryPath(digest))
		return nil, nil, "", false
	}
	return res, payload, resDigest, true
}

// diskPut writes one entry atomically: a unique temp file in the same
// directory, fsync-free write, then rename into place. Readers never
// observe a partially written entry; crashes leave only temp files (ignored
// and overwritten by later writes).
func (c *Cache) diskPut(digest string, payload []byte, resDigest string) error {
	// Chaos site "cache.disk.put": slow or failing writes; a fault counts
	// a DiskErrors in the caller, like any real write failure.
	if err := c.chaos.Inject("cache.disk.put", digest); err != nil {
		return err
	}
	raw := EncodeEntry(digest, resDigest, payload)
	var rnd [6]byte
	if _, err := rand.Read(rnd[:]); err != nil {
		return err
	}
	tmp := filepath.Join(c.dir, fmt.Sprintf(".tmp-%s-%s", digest[:12], hex.EncodeToString(rnd[:])))
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.entryPath(digest)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
