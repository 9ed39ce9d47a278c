package cache

import (
	"bytes"
	"testing"

	"parrot/internal/config"
	"parrot/internal/experiments"
)

// FuzzVerifyEntry drives the disk-entry decoder, the store's trust
// boundary, with arbitrary bytes. It must never panic, and whatever it
// accepts must be self-consistent: keyed by the requested digest, carrying
// a payload whose decoded result hashes to the stored result digest, and
// re-encoding to the same container. Seeds: the committed corpus under
// testdata/fuzz plus a valid entry and a few corruptions built here.
func FuzzVerifyEntry(f *testing.F) {
	res := testResult(f, config.TON, "gzip", 2000)
	digest := testSpec(f, config.TON, "gzip", 2000).Digest()
	payload, err := encode(res)
	if err != nil {
		f.Fatal(err)
	}
	valid := EncodeEntry(digest, experiments.ResultDigest(res), payload)
	f.Add(valid, digest)
	f.Add(valid, digest[:12])
	f.Add(valid[:len(valid)/2], digest)
	f.Add(EncodeEntry(digest, "", nil), digest)
	f.Add([]byte{}, "")

	f.Fuzz(func(t *testing.T, raw []byte, want string) {
		got, payload, resDigest, err := VerifyEntry(raw, want)
		if err != nil {
			if got != nil || payload != nil || resDigest != "" {
				t.Fatalf("rejected entry returned values alongside %v", err)
			}
			return
		}
		if d := experiments.ResultDigest(got); d != resDigest {
			t.Fatalf("accepted entry: result hashes to %.12s, stored %.12s", d, resDigest)
		}
		spec, rd, pl, err := DecodeEntry(raw)
		if err != nil || spec != want || rd != resDigest || !bytes.Equal(pl, payload) {
			t.Fatalf("accepted entry does not decode to what VerifyEntry returned (err %v)", err)
		}
		// The container ignores bytes after the payload.
		if !bytes.HasPrefix(raw, EncodeEntry(want, resDigest, payload)) {
			t.Fatal("accepted entry does not re-encode to its own bytes")
		}
	})
}
