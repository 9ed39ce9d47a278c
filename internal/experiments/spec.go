package experiments

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sync"

	"parrot/internal/config"
	"parrot/internal/core"
	"parrot/internal/workload"
)

// SimVersion identifies the generation of simulation semantics. It is part
// of every RunSpec digest, so any intentional modelling change — anything
// that would move the committed golden matrix digest — must bump it, which
// atomically invalidates every content-addressed cache entry produced by
// older kernels. Kernel rewrites that are bit-identical (the PR 1/2
// contract) keep the version and therefore keep the cache warm.
const SimVersion = 4

// RunSpec is the canonical, fully-resolved description of one simulation
// cell: the complete machine configuration (not just its ID — sensitivity
// sweeps perturb parameters under an unchanged ID), the complete workload
// profile and the dynamic instruction budget. PR 2's golden digest proved a
// run is a bit-exact function of exactly these inputs, which makes the
// digest below a sound content address for the result.
type RunSpec struct {
	Model config.Model     `json:"model"`
	App   workload.Profile `json:"app"`
	Insts int              `json:"insts"`
}

// Normalize resolves defaulted fields to their effective values, so specs
// that run identically hash identically: Insts <= 0 means "profile default"
// everywhere in the simulator (core.RunWarmOn), so it is rewritten to the
// profile's instruction count.
func (s RunSpec) Normalize() RunSpec {
	if s.Insts <= 0 {
		s.Insts = s.App.Instructions
	}
	return s
}

// Digest returns the hex SHA-256 content address of the spec: the cache
// key of the serving layer. The encoding is canonical — SimVersion, then
// the JSON of the resolved model and profile (struct declaration order,
// stable across runs and processes), then the normalized instruction
// count. Two processes that build the same spec derive the same address
// with no coordination.
//
// Note JSON field order is Go struct declaration order: adding or moving a
// field in config.Model, ooo.Config, mem.HierarchyConfig, opt.Config or
// workload.Profile changes every digest. That is the desired behaviour
// (new knobs mean results may differ), and TestRunSpecDigestGolden pins it
// so such changes are made consciously alongside a SimVersion review.
func (s RunSpec) Digest() string {
	s = s.Normalize()
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(s.prefix()); err != nil {
		panic(fmt.Sprintf("experiments: restoring spec hash state: %v", err))
	}
	wu64(h, uint64(s.Insts))
	return hex.EncodeToString(h.Sum(nil))
}

// specPair is the part of a RunSpec that the prefix encodes.
type specPair struct {
	model config.Model
	app   workload.Profile
}

// maxPrefixes bounds the prefix memo; pairs beyond it are encoded per call.
const maxPrefixes = 4096

// prefixes memoizes the prefix of each distinct (model, profile) pair, so
// the JSON encoding — the bulk of a digest's cost — runs once per pair
// rather than on every Digest call. Map keys compare floats by value, so a
// pair differing only in the sign of a zero parameter shares the entry of
// whichever sign was seen first.
var prefixes = struct {
	sync.RWMutex
	m map[specPair][]byte
}{m: make(map[specPair][]byte)}

// prefix returns the marshaled SHA-256 state after what a digest hashes
// before the instruction budget: SimVersion and the JSON of the model and
// profile.
func (s RunSpec) prefix() []byte {
	key := specPair{s.Model, s.App}
	prefixes.RLock()
	p := prefixes.m[key]
	prefixes.RUnlock()
	if p != nil {
		return p
	}
	h := sha256.New()
	wu64(h, SimVersion)
	mb, err := json.Marshal(s.Model)
	if err != nil {
		panic(fmt.Sprintf("experiments: model spec not serializable: %v", err))
	}
	pb, err := json.Marshal(s.App)
	if err != nil {
		panic(fmt.Sprintf("experiments: profile spec not serializable: %v", err))
	}
	wbytes(h, mb)
	wbytes(h, pb)
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("experiments: saving spec hash state: %v", err))
	}
	prefixes.Lock()
	if len(prefixes.m) < maxPrefixes {
		prefixes.m[key] = state
	}
	prefixes.Unlock()
	return state
}

// canonical little-endian writers shared by the spec and result hashers.

func wu64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func wf64(h hash.Hash, v float64) { wu64(h, math.Float64bits(v)) }

func wstr(h hash.Hash, s string) {
	wu64(h, uint64(len(s)))
	h.Write([]byte(s))
}

func wbytes(h hash.Hash, b []byte) {
	wu64(h, uint64(len(b)))
	h.Write(b)
}

// writeResult streams every deterministic field of one cell result into the
// hash in canonical order. It is the single definition shared by the
// matrix-level Results.Digest (the golden-digest test) and the cell-level
// ResultDigest (the serving cache's integrity check), so a cached cell that
// verifies individually also verifies inside a reassembled matrix.
func writeResult(h hash.Hash, res *core.Result) {
	wstr(h, string(res.Model))
	wstr(h, res.App)
	wu64(h, res.Insts)
	wu64(h, res.Cycles)
	wu64(h, res.HotInsts)
	wu64(h, res.ColdInsts)
	wf64(h, res.DynEnergy)
	for _, b := range res.Breakdown {
		wf64(h, b)
	}
	wu64(h, res.BranchStats.Lookups)
	wu64(h, res.BranchStats.Updates)
	wu64(h, res.BranchStats.Mispredicts)
	wu64(h, res.TPredStats.Lookups)
	wu64(h, res.TPredStats.Predictions)
	wu64(h, res.TPredStats.Correct)
	wu64(h, res.TPredStats.Mispredicts)
	wu64(h, res.TPredStats.Updates)
	wu64(h, res.TCStats.Lookups)
	wu64(h, res.TCStats.Hits)
	wu64(h, res.TCStats.Misses)
	wu64(h, res.TCStats.Inserts)
	wu64(h, res.TCStats.Writebacks)
	wu64(h, res.TCStats.Evictions)
	wu64(h, res.TraceAborts)
	wu64(h, res.TraceBuilds)
	wu64(h, res.HotSegments)
	wu64(h, res.ColdSegments)
	wu64(h, res.Optimizations)
	wu64(h, res.OptUopsBefore)
	wu64(h, res.OptUopsAfter)
	wu64(h, res.OptCritBefore)
	wu64(h, res.OptCritAfter)
	wu64(h, res.DynUopsOrig)
	wu64(h, res.DynUopsOpt)
	wu64(h, res.DynCritOrig)
	wu64(h, res.DynCritOpt)
	wu64(h, res.OptTracesSeen)
	wu64(h, res.OptExecs)
	wu64(h, res.UopsCommitted)
	wu64(h, res.UopsDispatched)
	for _, c := range res.Counts {
		wu64(h, c)
	}
}

// ResultDigest returns the hex SHA-256 over every deterministic field of a
// single cell result — the value the serving cache stores alongside each
// entry and recomputes on load, so corrupt or truncated entries are
// detected by digest mismatch and recomputed rather than served.
func ResultDigest(res *core.Result) string {
	h := sha256.New()
	writeResult(h, res)
	return hex.EncodeToString(h.Sum(nil))
}
