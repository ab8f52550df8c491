package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// digestWindow is the number of instructions each pinned digest covers.
const digestWindow = 100_000

// traceDigests pins, for every benchmark of the suite, the SHA-256 of the
// wire encoding (codec.go) of its first digestWindow instructions. The
// values were computed with the generator drawing from math/rand's
// *rand.Rand; the concrete source in rng.go must reproduce them exactly.
// This is the generator-level guard for the whole suite: the core goldens
// cover only a few benchmarks.
var traceDigests = map[string]string{
	"adpcm encode":    "e93e040e8b9750b5f931f03ef090e6181ac5ce08056a1a4c870b1682ed29773e",
	"adpcm decode":    "1db4ab85d5bc2247bf9c746dc60ec27031a42e1bc9043648830b34a6c805d87c",
	"epic encode":     "9576d2f0355ae225ba35cac9abda98cc0f34a353421a4c3b8fcdc361c83e53f0",
	"epic decode":     "ccd9826831c878c1fa2985a972561c0ca3cbb21822418d61a5586977f423ff30",
	"jpeg compress":   "157413515ebdb4f9345449ba1a2ba2d1659b6b8ed8debd8ec5840c52cdb2f62b",
	"jpeg decompress": "520522db4948128fd589a4941083974437f212f3fabfb6ae5a4ce1fb4ee63488",
	"g721 encode":     "afcfd6143d0cc78de02611e94267476e3c6352d7877742f6282eca4919f9774f",
	"g721 decode":     "36b6b12cd65750aaac2a0d0d2b6d7a2550296797aff9c9e1b9bfb3363f81fd74",
	"gsm encode":      "bd3de3c24df3c4a63693952efb3e51e6de6265ca9315004fc01de57deb708144",
	"gsm decode":      "3430933a6fb2f6abd94eee4b24655e7b36161271fabf562613e3606af1e56053",
	"ghostscript":     "7a6af4e7ba2f307b5fc6f0740bf77650ba378f5b69fcad08c7e17259e241a9e0",
	"mesa mipmap":     "f73cef6a16b3e21421f86a80c995e517ce485edda551942e44bb0eb6b71b5b87",
	"mesa osdemo":     "e712c0d5040c8354f43766110e8b61b95c990667f92fccb161453f324aac2d15",
	"mesa texgen":     "0cddbc4983818fe3ca4e2f4b9d744d917d6ed4753a72ee17b72afb2513052393",
	"mpeg2 encode":    "29ad93aa4c411cc047fb211dae0e6cb97c4bbd435b4c1bfb0d7f334c2c8ec723",
	"mpeg2 decode":    "8a35b34ee9bd081885d1eb1726d772a952078afe443435ed846407cf643fa5e0",
	"bh":              "de7cb5f44b13ef2938d9a149891ed16a9a6109a8ae5dfe1f9ae05d0a8765cc58",
	"bisort":          "77f989172b4f30e1ed1cbef25796698a4b47892c9c22eba2e46d03315c1d7494",
	"em3d":            "3858f94a4be32226c14098378c813ebe79719b053eb5ddc3259e7367f2b7ecd8",
	"health":          "20e1410ce879b3a697e3b5bd267d1c14de0c6be76282c542fb09446f4113d267",
	"mst":             "783f900604093a26061a22148568b643c2be60137bd61bb14c4017cc02219458",
	"perimeter":       "f9cf66c8388a6dcaeb540d27fcb59f74a5ccc561ffd01eb2bedf50dfbce63886",
	"power":           "4a7ffcb7ea4933277b0f33c2f2314a3e78618ce31aa29cb4766d302e53c3712d",
	"treeadd":         "f4bbe6ce12f1847a0753fbf04f2e62944aab550a683910d875a6cfcc0bfea975",
	"tsp":             "8233de5426cb55493dd1fcccf529cb4728c65750aab7e2ccaa12c14ce221ea08",
	"bzip2":           "2327ddd0150ca75720192d24a2fe6e222f25632d9be4f9ae95d352b59fdc1d94",
	"crafty":          "1b08b9803554d4330d7209a6af24d153650fdec310003246232546a86a63954a",
	"eon":             "bea2b67d7135148f1268d37721ccdf0b044d39626cb73cccca0b620de7af587d",
	"gcc":             "773856e5a0f0eb49a406e5795bc224cb2617dc1eda29ffbeb3acaae30a4612d3",
	"gzip":            "275b4cb8b67404ef6e12ad3d5a37594999a8021f7d37df06252151adedb34e12",
	"parser":          "c0986edcb8f1b1cf8e159342082038e2084a27b2cb15532ab45627645f18b126",
	"twolf":           "17bde28d242804568e90c4d0dd9c13f157b8b70fc1a8b37f22cf15c4cec0b0f0",
	"vortex":          "59740bbb91271ddd3d54fe39b3ecb7c1d3af1594be17e5b0851100d4dc483af6",
	"vpr":             "8699edbd1c2e479554b553b1cc285f45030ff1cb3a8108c9c1db17e42619f823",
	"apsi":            "f78ef88af438376decb2599fe01b5334e46fbddb08c4b970e440ebbc9b46622f",
	"art":             "195c47d1c9ea944514fdbca314e7af95db6918490a35ebd02d07177eba5906ec",
	"equake":          "640d0362d5ce7e0449585fc923fd061334eb056cb0605c7704cd243518a0bf08",
	"galgel":          "342932c8361de51bc355a839b9c7eb5405e499ca3a409d573c66b2ce3040250c",
	"mesa":            "a74930f9af9e52cd636e7ec1191e2fa526107f9937a30412431f5e8c9d6607a4",
	"wupwise":         "1b03be5fbeea99b5ce94ecae2529731547e449e475ca23305710b281eefd7485",
}

func TestTraceDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes 4M generated instructions")
	}
	suite := Suite()
	if len(traceDigests) != len(suite) {
		t.Errorf("%d pinned digests for %d benchmarks", len(traceDigests), len(suite))
	}
	for _, s := range suite {
		h := sha256.New()
		if err := s.RecordToContext(nil, h, digestWindow); err != nil {
			t.Fatal(err)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := traceDigests[s.Name]; got != want {
			t.Errorf("%q: trace digest %s, pinned %s", s.Name, got, want)
		}
	}
}
