// Package workload synthesizes the benchmark substrate of the study.
//
// The paper evaluates 44 proprietary IA32 application traces (SpecInt 2000,
// SpecFP 2000, SysMark 2000 office, multimedia and .NET suites, 30–100M
// instructions each). Those traces are not available, so this package builds
// the closest synthetic equivalent: for each named application a seeded
// generator synthesizes a static program (hot loops, cold call chains,
// procedures) and walks it to produce a dynamic instruction stream. The
// stream's distributional properties — hot/cold working-set skew, basic
// block sizes, branch predictability, dependency density (ILP), memory
// locality and the redundancy available to a dynamic optimizer — are set per
// suite to match the qualitative characteristics the paper relies on
// (regular, predictable FP code with ~90% trace coverage vs irregular
// control-intensive integer code at 60–70%, §4.2).
//
// Everything is deterministic: the same profile always generates the same
// program and the same dynamic stream.
package workload

import (
	"fmt"
	"sync"
)

// Suite classifies applications into the paper's five benchmark groups.
type Suite uint8

// Benchmark suites of the study (§3.4).
const (
	SpecInt Suite = iota
	SpecFP
	Office
	Multimedia
	DotNet
	NumSuites
)

var suiteNames = [...]string{"SpecInt", "SpecFP", "Office", "Multimedia", "DotNet"}

// String implements fmt.Stringer.
func (s Suite) String() string {
	if int(s) < len(suiteNames) {
		return suiteNames[s]
	}
	return fmt.Sprintf("suite?%d", int(s))
}

// Profile parameterizes the synthetic generator for one application.
type Profile struct {
	Name  string
	Suite Suite
	Seed  int64

	// Instructions is the default dynamic stream length.
	Instructions int

	// Control structure.
	HotFraction float64 // fraction of dynamic instructions spent in hot loops
	NumLoops    int     // static hot loops (popularity is zipf-distributed)
	LoopBlocks  [2]int  // min,max body blocks per loop
	BlockInsts  [2]int  // min,max instructions per basic block
	TripCount   [2]int  // min,max iterations per loop entry
	HammockProb float64 // probability a loop body includes an if-then hammock
	CallProb    float64 // probability a loop body calls a leaf procedure
	ColdBlocks  int     // static cold-region size in blocks
	ColdChain   [2]int  // min,max blocks walked per cold episode

	// Branch behaviour of non-loop conditionals. Most branches are heavily
	// biased (CondBias is the mean easy-branch bias); CondHardFrac of them
	// are hard, near-random branches — the minority that dominates the
	// misprediction rate of irregular integer code.
	CondBias     float64 // mean bias of easy branches (≈0.9-0.97)
	CondHardFrac float64 // fraction of hard (near-random) branches
	CondPattern  float64 // fraction following a learnable period-2 pattern

	// Instruction mix (fractions of non-CTI instructions; remainder is ALU).
	FracFP      float64
	FracMem     float64 // loads+stores
	FracMulDiv  float64
	ComplexFrac float64 // fraction decoding to 3+ uops

	// DepChain in [0,1]: probability an operand reads a recently written
	// register, producing serial dependency chains (high for irregular
	// integer code, low for parallel FP code).
	DepChain float64

	// Memory behaviour.
	WSData     int     // data working set in bytes
	StrideFrac float64 // fraction of memory streams that are strided

	// Redundancy visible to the dynamic optimizer inside hot code.
	DeadFrac  float64 // dead writes (overwritten before read)
	ConstFrac float64 // constant-foldable movi/alu-imm chains
	CopyFrac  float64 // copy chains (mov propagation)
	FuseFrac  float64 // adjacent dependent ALU pairs (fusable)
	SimdFrac  float64 // adjacent independent same-op pairs (SIMDifiable)
}

// suiteBase returns the template profile for a suite. Individual apps jitter
// these parameters deterministically from their seed.
func suiteBase(s Suite) Profile {
	switch s {
	case SpecInt:
		return Profile{
			Suite: SpecInt, Instructions: 200_000,
			HotFraction: 0.80, NumLoops: 24,
			LoopBlocks: [2]int{1, 4}, BlockInsts: [2]int{4, 9},
			TripCount: [2]int{12, 56}, HammockProb: 0.55, CallProb: 0.30,
			ColdBlocks: 1000, ColdChain: [2]int{20, 80},
			CondBias: 0.95, CondHardFrac: 0.10, CondPattern: 0.25,
			FracFP: 0.02, FracMem: 0.34, FracMulDiv: 0.03, ComplexFrac: 0.10,
			DepChain: 0.20,
			WSData:   1 << 20, StrideFrac: 0.35,
			DeadFrac: 0.004, ConstFrac: 0.003, CopyFrac: 0.004,
			FuseFrac: 0.007, SimdFrac: 0.003,
		}
	case SpecFP:
		return Profile{
			Suite: SpecFP, Instructions: 200_000,
			HotFraction: 0.95, NumLoops: 8,
			LoopBlocks: [2]int{1, 2}, BlockInsts: [2]int{7, 14},
			TripCount: [2]int{40, 400}, HammockProb: 0.15, CallProb: 0.10,
			ColdBlocks: 500, ColdChain: [2]int{12, 48},
			CondBias: 0.97, CondHardFrac: 0.03, CondPattern: 0.40,
			FracFP: 0.38, FracMem: 0.36, FracMulDiv: 0.02, ComplexFrac: 0.06,
			DepChain: 0.10,
			WSData:   8 << 20, StrideFrac: 0.90,
			DeadFrac: 0.003, ConstFrac: 0.003, CopyFrac: 0.003,
			FuseFrac: 0.006, SimdFrac: 0.008,
		}
	case Office:
		return Profile{
			Suite: Office, Instructions: 200_000,
			HotFraction: 0.72, NumLoops: 30,
			LoopBlocks: [2]int{1, 4}, BlockInsts: [2]int{3, 8},
			TripCount: [2]int{10, 44}, HammockProb: 0.60, CallProb: 0.40,
			ColdBlocks: 1400, ColdChain: [2]int{24, 100},
			CondBias: 0.94, CondHardFrac: 0.12, CondPattern: 0.20,
			FracFP: 0.01, FracMem: 0.38, FracMulDiv: 0.02, ComplexFrac: 0.14,
			DepChain: 0.20,
			WSData:   2 << 20, StrideFrac: 0.30,
			DeadFrac: 0.005, ConstFrac: 0.004, CopyFrac: 0.005,
			FuseFrac: 0.006, SimdFrac: 0.003,
		}
	case Multimedia:
		return Profile{
			Suite: Multimedia, Instructions: 200_000,
			HotFraction: 0.88, NumLoops: 14,
			LoopBlocks: [2]int{1, 3}, BlockInsts: [2]int{6, 12},
			TripCount: [2]int{16, 120}, HammockProb: 0.35, CallProb: 0.20,
			ColdBlocks: 900, ColdChain: [2]int{16, 64},
			CondBias: 0.96, CondHardFrac: 0.06, CondPattern: 0.35,
			FracFP: 0.18, FracMem: 0.35, FracMulDiv: 0.05, ComplexFrac: 0.09,
			DepChain: 0.14,
			WSData:   4 << 20, StrideFrac: 0.75,
			DeadFrac: 0.004, ConstFrac: 0.004, CopyFrac: 0.004,
			FuseFrac: 0.007, SimdFrac: 0.007,
		}
	case DotNet:
		return Profile{
			Suite: DotNet, Instructions: 200_000,
			HotFraction: 0.82, NumLoops: 18,
			LoopBlocks: [2]int{1, 3}, BlockInsts: [2]int{5, 10},
			TripCount: [2]int{12, 64}, HammockProb: 0.45, CallProb: 0.45,
			ColdBlocks: 1100, ColdChain: [2]int{20, 80},
			CondBias: 0.95, CondHardFrac: 0.10, CondPattern: 0.30,
			FracFP: 0.10, FracMem: 0.36, FracMulDiv: 0.03, ComplexFrac: 0.11,
			DepChain: 0.17,
			WSData:   3 << 20, StrideFrac: 0.50,
			DeadFrac: 0.005, ConstFrac: 0.004, CopyFrac: 0.005,
			FuseFrac: 0.007, SimdFrac: 0.004,
		}
	}
	panic(fmt.Sprintf("workload: unknown suite %d", s))
}

// app builds a named application profile from its suite template with
// deterministic per-app parameter jitter derived from the seed.
func app(name string, s Suite, seed int64, tweak func(*Profile)) Profile {
	p := suiteBase(s)
	p.Name = name
	p.Seed = seed
	// Deterministic mild jitter so apps within a suite differ.
	j := func(k int64) float64 { // in [-1,1]
		x := seed*2654435761 + k*40503
		x ^= x >> 13
		x *= 1099511628211
		x ^= x >> 29
		return float64(int64(uint64(x)%2001)-1000) / 1000
	}
	p.HotFraction = clamp01(p.HotFraction + 0.05*j(1))
	p.CondBias = clamp(p.CondBias+0.02*j(2), 0.85, 0.99)
	p.CondHardFrac = clamp(p.CondHardFrac+0.05*j(10), 0.02, 0.5)
	p.DepChain = clamp01(p.DepChain + 0.08*j(3))
	p.FracMem = clamp(p.FracMem+0.04*j(4), 0.1, 0.5)
	p.NumLoops = maxInt(3, p.NumLoops+int(4*j(5)))
	p.TripCount[0] = maxInt(2, p.TripCount[0]+int(float64(p.TripCount[0])*0.3*j(6)))
	p.TripCount[1] = maxInt(p.TripCount[0]+1, p.TripCount[1]+int(float64(p.TripCount[1])*0.3*j(7)))
	p.SimdFrac = clamp01(p.SimdFrac + 0.01*j(8))
	p.FuseFrac = clamp01(p.FuseFrac + 0.01*j(9))
	if tweak != nil {
		tweak(&p)
	}
	return p
}

func clamp01(v float64) float64 { return clamp(v, 0, 1) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Apps returns the full 44-application benchmark suite of the study.
// The three "killer applications" the paper highlights — flash (multimedia),
// wupwise (SpecFP) and perlbmk (SpecInt) — are tuned toward high trace
// affinity and optimizer-visible redundancy, as their measured behaviour in
// the paper indicates.
func Apps() []Profile {
	var out []Profile
	add := func(p Profile) { out = append(out, p) }

	// SpecInt 2000 (11 apps).
	add(app("bzip", SpecInt, 101, nil))
	add(app("crafty", SpecInt, 102, nil))
	add(app("eon", SpecInt, 103, func(p *Profile) { p.FracFP = 0.10 }))
	add(app("gap", SpecInt, 104, nil))
	add(app("gcc", SpecInt, 105, func(p *Profile) {
		p.HotFraction = 0.68
		p.ColdBlocks = 1600
		p.CondHardFrac = 0.10
	}))
	add(app("gzip", SpecInt, 106, func(p *Profile) { p.HotFraction = 0.84 }))
	add(app("parser", SpecInt, 107, nil))
	add(app("perlbmk", SpecInt, 108, func(p *Profile) {
		// Killer app: unusually hot, trace-friendly integer code.
		p.HotFraction = 0.88
		p.NumLoops = 10
		p.TripCount = [2]int{12, 60}
		p.CondHardFrac = 0.06
		p.DeadFrac, p.ConstFrac, p.CopyFrac = 0.010, 0.008, 0.010
		p.FuseFrac, p.SimdFrac = 0.014, 0.007
	}))
	add(app("twolf", SpecInt, 109, nil))
	add(app("vortex", SpecInt, 110, func(p *Profile) { p.ColdBlocks = 1500 }))
	add(app("vpr", SpecInt, 111, nil))

	// SpecFP 2000 (11 apps).
	add(app("ammp", SpecFP, 201, nil))
	add(app("apsi", SpecFP, 202, nil))
	add(app("art", SpecFP, 203, func(p *Profile) { p.WSData = 16 << 20 }))
	add(app("equake", SpecFP, 204, func(p *Profile) { p.StrideFrac = 0.6 }))
	add(app("facerec", SpecFP, 205, nil))
	add(app("fma3d", SpecFP, 206, nil))
	add(app("lucas", SpecFP, 207, func(p *Profile) { p.WSData = 12 << 20 }))
	add(app("mesa", SpecFP, 208, func(p *Profile) { p.FracFP = 0.25; p.HotFraction = 0.88 }))
	add(app("sixtrack", SpecFP, 209, nil))
	add(app("swim", SpecFP, 210, func(p *Profile) {
		// Highest average dynamic power on the base OOO model (the paper's
		// P_MAX anchor for the leakage formula): very regular, very parallel
		// streaming FP code that keeps every execution resource busy.
		p.HotFraction = 0.97
		p.NumLoops = 4
		p.TripCount = [2]int{200, 600}
		p.DepChain = 0.10
		p.FracFP = 0.5
		p.FracFP = 0.44
		p.StrideFrac = 0.98
		p.WSData = 2 << 20
		p.CondHardFrac = 0.03
	}))
	add(app("wupwise", SpecFP, 211, func(p *Profile) {
		// Killer app: dense FP loops with heavy optimizer-visible redundancy.
		p.HotFraction = 0.96
		p.NumLoops = 6
		p.DeadFrac, p.ConstFrac, p.CopyFrac = 0.008, 0.007, 0.008
		p.FuseFrac, p.SimdFrac = 0.012, 0.016
		p.DepChain = 0.14
	}))

	// Office / Windows applications from SysMark 2000 (6 apps).
	add(app("excel", Office, 301, nil))
	add(app("office", Office, 302, nil))
	add(app("powerpoint", Office, 303, nil))
	add(app("virusscan", Office, 304, func(p *Profile) { p.HotFraction = 0.78; p.StrideFrac = 0.6 }))
	add(app("winzip", Office, 305, func(p *Profile) { p.HotFraction = 0.78 }))
	add(app("word", Office, 306, nil))

	// Multimedia (11 apps).
	add(app("flash", Multimedia, 401, func(p *Profile) {
		// Killer app: the paper's highest overall improvement.
		p.HotFraction = 0.93
		p.NumLoops = 8
		p.TripCount = [2]int{24, 160}
		p.CondHardFrac = 0.06
		p.DeadFrac, p.ConstFrac, p.CopyFrac = 0.010, 0.008, 0.009
		p.FuseFrac, p.SimdFrac = 0.013, 0.014
		p.DepChain = 0.18
	}))
	add(app("photoshop", Multimedia, 402, nil))
	add(app("dragon", Multimedia, 403, nil))
	add(app("lightwave", Multimedia, 404, func(p *Profile) { p.FracFP = 0.25 }))
	add(app("quake3", Multimedia, 405, func(p *Profile) { p.FracFP = 0.22 }))
	add(app("3dsmax-light", Multimedia, 406, nil))
	add(app("3dsmax-aniso", Multimedia, 407, nil))
	add(app("3dsmax-raster", Multimedia, 408, func(p *Profile) { p.SimdFrac = 0.009 }))
	add(app("3dsmax-geom", Multimedia, 409, func(p *Profile) { p.FracFP = 0.28 }))
	add(app("flask-mpeg4-a", Multimedia, 410, func(p *Profile) { p.SimdFrac = 0.010 }))
	add(app("flask-mpeg4-b", Multimedia, 411, func(p *Profile) { p.SimdFrac = 0.009 }))

	// DotNet (5 apps).
	add(app("dotnet-image", DotNet, 501, nil))
	add(app("dotnet-num1", DotNet, 502, func(p *Profile) { p.FracFP = 0.20; p.HotFraction = 0.85 }))
	add(app("dotnet-num2", DotNet, 503, func(p *Profile) { p.FracFP = 0.18; p.HotFraction = 0.83 }))
	add(app("dotnet-phong1", DotNet, 504, func(p *Profile) { p.FracFP = 0.24 }))
	add(app("dotnet-phong2", DotNet, 505, func(p *Profile) { p.FracFP = 0.22 }))

	return out
}

// byName indexes the roster by application name. It is built on first use;
// profiles are values, so every lookup hands out its own copy.
var byName = sync.OnceValue(func() map[string]Profile {
	idx := make(map[string]Profile)
	for _, p := range Apps() {
		idx[p.Name] = p
	}
	return idx
})

// ByName looks up an application profile by name.
func ByName(name string) (Profile, bool) {
	p, ok := byName()[name]
	return p, ok
}

// KillerApps returns the three applications the paper singles out for the
// highest improvements: flash, wupwise and perlbmk.
func KillerApps() []string { return []string{"flash", "wupwise", "perlbmk"} }

// SuiteApps returns the profiles belonging to one suite.
func SuiteApps(s Suite) []Profile {
	var out []Profile
	for _, p := range Apps() {
		if p.Suite == s {
			out = append(out, p)
		}
	}
	return out
}
