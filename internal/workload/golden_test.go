package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// programGoldens are the SHA-256 digests of programDigest over every
// application's generated program. They pin the generator byte for byte:
// any change to the RNG call sequence, the block graph, the layout or the
// uops shows here, independently of the simulation results.
var programGoldens = map[string]string{
	"bzip":          "6cf24473e19c5cc9b19f3d12e91284e6109903b03b6136ee89279b04e12e7fe7",
	"crafty":        "f181c1a1dcf6d334c520269f45792779ffc64e6e899208e6e8d8d1eba251bcda",
	"eon":           "689d05f3fb8e95af428f2cdd6e955a4226482ca38f4ed9b67f989f523efd619f",
	"gap":           "ffb0db264646750c1d3bf989cfd9c42a00cea69729e25e69df89aa7759a348ae",
	"gcc":           "b1813f8219a7f189e165232009ecd555d8f811495c9e060fad38b2637c93f07c",
	"gzip":          "2eaf9cb803224565a47021f3434d24e8f01dd755f5527e24b2ecaf198f2092a0",
	"parser":        "f9fb049144d76fa8a006f72464ad7a64e0c0ccaa12e4d62f81093ac72d43dce1",
	"perlbmk":       "8f907628d1bc957f75ac394f9cc0cf91b1133233bc6ee5b1f84b25009d660fe3",
	"twolf":         "950d9a139bbfc505500fd07dfe217727085a6461e366c4749fa56cefac13ffb4",
	"vortex":        "1bf00057698bd7e9fe69dc8d3c8736df532cc32d3c7221ede10fc3b908e666de",
	"vpr":           "076dc080e3cacab4833ce9babf8181217ff44875b6924637516407b6045f4314",
	"ammp":          "94b481c120fae63cb83c74c95a34741c379e08ad572060b39f4bcb9284b7c516",
	"apsi":          "4ee482fd8d5d051366ce0adba53951e4e6d8065b2d052ab730609ab4ac81caac",
	"art":           "ab602b057e345b38683c8ade5fddd23538731a96c9cc00948c3096e3d22dadc6",
	"equake":        "d390a70e18a62338bce6757fb0404e6597e26e5c5b060cc174b00d8973754fe0",
	"facerec":       "8bd899a51581a60c66e9038898335240cc390f2d83e752687878ee3ad60c6d80",
	"fma3d":         "89dbce72bc04576e188567fcf1b43754a628cee84c0d0dee7f431140dc3276f2",
	"lucas":         "8327f8251490194046ebf7f70e813a8d1951f8e60b52476a68c256c938687c44",
	"mesa":          "5f1c3d40aca45322189eb6e8a28e2063635dfe2c84ca16b3b6b2f2b4efc494bf",
	"sixtrack":      "bad593fdb4c43fe46b5a944cc53107e514f840e0f5114309eff0ee6b47376e79",
	"swim":          "9e34efecbad5ce7fdeba333ac720ea2f764ec8db2b3cae05db10f19ae1d87e3f",
	"wupwise":       "656f24507a781305433b4cb8efc94a66a1466c87b22105f018495138b7ac3614",
	"excel":         "5b13b6b315a200fe634db70450a53c75877d06eca331deb202adddac847ffe98",
	"office":        "5bd5d49cef79052c42326f55228c77263a8ae31e642e63f10264e38221d6633f",
	"powerpoint":    "3fb0b92ebb0d0d6078a4d81e400ff9b9daa35b4206d522b7f90321199c3dfd3e",
	"virusscan":     "acb5620f591dcbdff0f6003ba619d5d996427f9e1449086283e459e113ad15ec",
	"winzip":        "d960b78d9fb64f925a2ccbf8df4a3889e7e1f7f94a4e9214be756c17a6c67cd4",
	"word":          "dab6c5967892af5045b826dbc3df5fd57b16558689cd3b597e5ee2bb93a6768b",
	"flash":         "bc4db21b8e06134fd2ff693e25b0ae855518436db680fb439d2a61e1355ce39d",
	"photoshop":     "b23be4758de8fd9c059982fd15cf0e3c7dffa6169c26abbc17fe9b6929fd19bd",
	"dragon":        "4ce50e882114190d40ec16f80f3a9cf1ce23a231330aa10530ef8df849bf59f5",
	"lightwave":     "aac3ba5fbd2fdfbb91ff1e6c6f24388ee1734350d0cc3a5ad79f6e4da1a40005",
	"quake3":        "df95728ec473d09295d521c9725da122860362460656a740207199cdf5e49c49",
	"3dsmax-light":  "1533b3c23d23804831f46e4c02b1599422735c632cf16da5887000fbaf42347f",
	"3dsmax-aniso":  "8c1d993d6ac517373cacb764c47b25f9fd576254c7ff7a8589020c6607a1e130",
	"3dsmax-raster": "72687819a8c896c79c21ae067e0705be0b111ab0c65f870ae53acb55797b9299",
	"3dsmax-geom":   "ba9ed5c4c1c6cce08dde117c8f88a7ab1af5039f9403a649fa1c5191de36bbeb",
	"flask-mpeg4-a": "f59e8ed5c83f3421ff6a0437116c89ee66819060b1abac958b63547b1b7b338c",
	"flask-mpeg4-b": "c8138c305fa87c9cbde55f4f232ed6cb896f343c1c1c42f6da8eba5b5eb942bc",
	"dotnet-image":  "304fa6db38ec1b5eed802e7ca54883d6b175e01cfadc0d8d830f0f7cce0ad3d6",
	"dotnet-num1":   "61ade059c3f202b0009a47e7a573c22a2353479fb3ddd088bb88da9839f8376f",
	"dotnet-num2":   "7efe4e7b116f34bd500bcd7ea7e80a364e454f4ace52a7df9053bf6ddf72e622",
	"dotnet-phong1": "257c8044dceffa20fa43b703e7fd8d6a20c5b79009fa2cf74e80580141064f08",
	"dotnet-phong2": "c9c2250bd40adda1bbdf668404953b2b8dff2f874c008e40e465cda4323ef727",
}

// programDigest hashes a generated program: the block graph (terminators,
// successors, callees, branch dynamics), every instruction's PC, size,
// kind and target, every uop's architectural fields, each block's
// MemStream, and the loops, procedures and cold region that reference the
// blocks. Derived dispatch data is left out, so the digest describes the
// program, not its representation.
func programDigest(p *Program) string {
	h := sha256.New()
	w := func(vs ...uint64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	id := func(b *Block) uint64 {
		if b == nil {
			return math.MaxUint64
		}
		return uint64(b.ID)
	}
	w(uint64(len(p.Blocks())), uint64(p.NumStreams()), uint64(p.StaticInsts()))
	for _, b := range p.Blocks() {
		callee := uint64(math.MaxUint64)
		if b.Callee != nil {
			callee = uint64(b.Callee.ID)
		}
		pattern := uint64(0)
		if b.Pattern {
			pattern = 1
		}
		w(uint64(b.ID), uint64(b.Term), id(b.Taken), id(b.Fall), callee,
			math.Float64bits(b.Bias), pattern, uint64(len(b.Insts)), uint64(len(b.MemStream)))
		for i := range b.Insts {
			in := b.Insts[i]
			w(in.PC, uint64(in.Size), uint64(in.Kind), in.Target, uint64(len(in.Uops)))
			for k := range in.Uops {
				u := &in.Uops[k]
				taken := byte(0)
				if u.Taken {
					taken = 1
				}
				h.Write([]byte{byte(u.Op), byte(u.Cond), byte(u.Dst[0]), byte(u.Dst[1]),
					byte(u.Src[0]), byte(u.Src[1]), byte(u.Src[2]), byte(u.Src[3]),
					byte(u.SubOps[0]), byte(u.SubOps[1]), taken})
				w(uint64(u.Imm))
			}
		}
		for _, s := range b.MemStream {
			w(uint64(int64(s)))
		}
	}
	w(uint64(len(p.Loops)))
	for _, l := range p.Loops {
		w(uint64(l.ID), uint64(l.TripMin), uint64(l.TripMax), math.Float64bits(l.Weight), uint64(len(l.Body)))
		for _, b := range l.Body {
			w(id(b))
		}
	}
	w(uint64(len(p.Procs)))
	for _, pr := range p.Procs {
		w(uint64(pr.ID), uint64(len(pr.Blocks)))
		for _, b := range pr.Blocks {
			w(id(b))
		}
	}
	w(uint64(len(p.Cold)))
	for _, b := range p.Cold {
		w(id(b))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestProgramDigestGolden regenerates every application's program and
// compares its digest with the golden captured from the generator that
// allocated each instruction and uop slice separately: the slab-backed
// generator must emit the same programs.
func TestProgramDigestGolden(t *testing.T) {
	for _, p := range Apps() {
		got := programDigest(Generate(p))
		want, ok := programGoldens[p.Name]
		if !ok {
			t.Errorf("%q: %q,", p.Name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: program digest %s, golden %s", p.Name, got, want)
		}
	}
}
