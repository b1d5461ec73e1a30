package compress_test

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/scidata/errprop/internal/compress"
)

// pinnedField is a seeded field with the three features the codecs treat
// differently: a smooth wave, a random walk with small noise, and a spike
// every 97 values that no predictor reaches at a tight tolerance.
func pinnedField(dims []int, seed int64) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	walk := 0.0
	for i := range data {
		walk += rng.NormFloat64() * 0.05
		data[i] = 2*math.Sin(0.013*float64(i)) + walk + 1e-3*rng.NormFloat64()
		if i%97 == 0 {
			data[i] += 10 * rng.Float64()
		}
	}
	return data
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// valuesCRC is the CRC32C of the values' little-endian float64 bits, so
// two decodes agree on it only if every value is == (and every NaN keeps
// its payload).
func valuesCRC(v []float64) uint32 {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return crc32.Checksum(b, castagnoli)
}

// TestCodecBytesPinned pins what every codec writes and reads back. Each
// row encodes pinnedField(dims, 1) and holds the length and CRC32C of the
// compress.Encode output and the CRC32C of the values compress.Decode
// returns. The table was recorded before the table-driven Huffman decoder
// and the shared MGARD hierarchy walk replaced the pointer-tree decoder
// and the closure walk, so a pass means those rewrites left every encoded
// byte and every decoded value as it was. The v1 fixtures under
// testdata/v1 are pinned the same way, by their decoded values. A change
// here is a format change, not new numbers.
func TestCodecBytesPinned(t *testing.T) {
	cases := []struct {
		codec      string
		dims       []int
		mode       compress.Mode
		tol        float64
		wantLen    int
		wantCRC    uint32
		wantValues uint32
	}{
		{"sz", []int{257}, compress.AbsLinf, 1e-2, 296, 0x6d108621, 0xb087c0ae},
		{"sz", []int{257}, compress.AbsLinf, 1e-4, 1078, 0xc0c5f651, 0xdea88007},
		{"sz", []int{257}, compress.AbsLinf, 1e-6, 1523, 0xd5baf966, 0xd9aea013},
		{"sz", []int{257}, compress.L2, 1e-2, 775, 0x72ab33a3, 0x3ddf4ee0},
		{"sz", []int{257}, compress.L2, 1e-4, 1294, 0x98b63a0c, 0x567d572f},
		{"sz", []int{257}, compress.L2, 1e-6, 2130, 0x8562223b, 0xf1e24853},
		{"zfp", []int{257}, compress.AbsLinf, 1e-2, 502, 0xb7c94eb2, 0x679c5ae6},
		{"zfp", []int{257}, compress.AbsLinf, 1e-4, 728, 0x9fd7f131, 0x504e4449},
		{"zfp", []int{257}, compress.AbsLinf, 1e-6, 922, 0x3dd8feb9, 0x72219a2c},
		{"mgard", []int{257}, compress.AbsLinf, 1e-2, 611, 0xdf789a98, 0x228c4295},
		{"mgard", []int{257}, compress.AbsLinf, 1e-4, 1351, 0x0c0bde5e, 0xe621067c},
		{"mgard", []int{257}, compress.AbsLinf, 1e-6, 2025, 0x22c39737, 0xbec12223},
		{"mgard", []int{257}, compress.L2, 1e-2, 1139, 0x5caa9500, 0x43d94a5a},
		{"mgard", []int{257}, compress.L2, 1e-4, 1430, 0xdf59dab3, 0x9faf4000},
		{"mgard", []int{257}, compress.L2, 1e-6, 2233, 0x8df22b7f, 0x93cfd8c5},
		{"sz", []int{9, 256}, compress.AbsLinf, 1e-2, 1864, 0x1808dc2f, 0xf018b7e2},
		{"sz", []int{9, 256}, compress.AbsLinf, 1e-4, 7397, 0x6173c43f, 0x12c54754},
		{"sz", []int{9, 256}, compress.AbsLinf, 1e-6, 14807, 0x1abf9c27, 0x422292ad},
		{"sz", []int{9, 256}, compress.L2, 1e-2, 5590, 0xfc4b2eb6, 0x1d8c668f},
		{"sz", []int{9, 256}, compress.L2, 1e-4, 12666, 0x3ef314d6, 0x38e57f47},
		{"sz", []int{9, 256}, compress.L2, 1e-6, 18714, 0x06b7510a, 0x1e0fde64},
		{"zfp", []int{9, 256}, compress.AbsLinf, 1e-2, 3634, 0x6b8b8fd5, 0x74bf3660},
		{"zfp", []int{9, 256}, compress.AbsLinf, 1e-4, 5874, 0x231a83f2, 0x6182c373},
		{"zfp", []int{9, 256}, compress.AbsLinf, 1e-6, 10462, 0x0cb27129, 0xe70182cf},
		{"mgard", []int{9, 256}, compress.AbsLinf, 1e-2, 5135, 0x1120b4a8, 0xaf9fc761},
		{"mgard", []int{9, 256}, compress.AbsLinf, 1e-4, 12536, 0x3c6d5e31, 0xae693c42},
		{"mgard", []int{9, 256}, compress.AbsLinf, 1e-6, 17904, 0x800a5349, 0x3bb9feac},
		{"mgard", []int{9, 256}, compress.L2, 1e-2, 12691, 0x881be526, 0xacba54d8},
		{"mgard", []int{9, 256}, compress.L2, 1e-4, 17815, 0xb2ea45a8, 0x4477203c},
		{"mgard", []int{9, 256}, compress.L2, 1e-6, 18876, 0xe85e1089, 0xfa1cae49},
		{"sz", []int{9, 4096}, compress.AbsLinf, 1e-2, 24503, 0x5d574785, 0xcaf2a90b},
		{"sz", []int{9, 4096}, compress.AbsLinf, 1e-4, 68374, 0x5e589b21, 0x5be80024},
		{"sz", []int{9, 4096}, compress.AbsLinf, 1e-6, 208280, 0x4afcf3c2, 0x53a39062},
		{"sz", []int{9, 4096}, compress.L2, 1e-2, 81140, 0xacc979f7, 0x44147aff},
		{"sz", []int{9, 4096}, compress.L2, 1e-4, 254486, 0xf00b89ef, 0xf9b5b52c},
		{"sz", []int{9, 4096}, compress.L2, 1e-6, 280752, 0x704dcefb, 0x0670bfa2},
		{"zfp", []int{9, 4096}, compress.AbsLinf, 1e-2, 59624, 0x9ab84206, 0xb24dd373},
		{"zfp", []int{9, 4096}, compress.AbsLinf, 1e-4, 95463, 0xd5e8db9f, 0x6fe7a670},
		{"zfp", []int{9, 4096}, compress.AbsLinf, 1e-6, 296050, 0x96ac5183, 0x1cc9a8a1},
		{"mgard", []int{9, 4096}, compress.AbsLinf, 1e-2, 53672, 0x38d7d324, 0x594a5960},
		{"mgard", []int{9, 4096}, compress.AbsLinf, 1e-4, 175984, 0xe08731e1, 0xb74f4a50},
		{"mgard", []int{9, 4096}, compress.AbsLinf, 1e-6, 269727, 0x6ab6cb1e, 0x4cca4cc8},
		{"mgard", []int{9, 4096}, compress.L2, 1e-2, 217563, 0xf954e582, 0x642ea336},
		{"mgard", []int{9, 4096}, compress.L2, 1e-4, 283250, 0x77cb5cd5, 0x7c507cad},
		{"mgard", []int{9, 4096}, compress.L2, 1e-6, 285336, 0x75cc00b6, 0x5ca42ab9},
		{"sz", []int{17, 33}, compress.AbsLinf, 1e-2, 615, 0x76b263c2, 0xcfb94661},
		{"sz", []int{17, 33}, compress.AbsLinf, 1e-4, 2161, 0xd2a77f3e, 0x7f3469d0},
		{"sz", []int{17, 33}, compress.AbsLinf, 1e-6, 3526, 0x5e2198ed, 0xc3136dbc},
		{"sz", []int{17, 33}, compress.L2, 1e-2, 1604, 0x4b3c52f4, 0x886c4243},
		{"sz", []int{17, 33}, compress.L2, 1e-4, 2925, 0x62996c56, 0x88547d31},
		{"sz", []int{17, 33}, compress.L2, 1e-6, 4591, 0x9addf2f5, 0x8a2086f4},
		{"zfp", []int{17, 33}, compress.AbsLinf, 1e-2, 807, 0xd3782586, 0x301240c8},
		{"zfp", []int{17, 33}, compress.AbsLinf, 1e-4, 1351, 0xce5d6f6f, 0x1740e5e1},
		{"zfp", []int{17, 33}, compress.AbsLinf, 1e-6, 2056, 0x3112bbf4, 0xc5a718dc},
		{"mgard", []int{17, 33}, compress.AbsLinf, 1e-2, 1203, 0x0455ac84, 0x60c6af13},
		{"mgard", []int{17, 33}, compress.AbsLinf, 1e-4, 2747, 0x92caf4c1, 0xc7d4b69a},
		{"mgard", []int{17, 33}, compress.AbsLinf, 1e-6, 4409, 0xfd5662fa, 0xf3b5dc24},
		{"mgard", []int{17, 33}, compress.L2, 1e-2, 2544, 0xbbf07fab, 0x465cb98a},
		{"mgard", []int{17, 33}, compress.L2, 1e-4, 3830, 0x8a0259a4, 0x87ab4c9b},
		{"mgard", []int{17, 33}, compress.L2, 1e-6, 4682, 0x5b756f27, 0x81e4dba1},
		{"sz", []int{4, 6, 5}, compress.AbsLinf, 1e-2, 318, 0x648bf14f, 0xde8b9148},
		{"sz", []int{4, 6, 5}, compress.AbsLinf, 1e-4, 653, 0x7751524a, 0xe389023d},
		{"sz", []int{4, 6, 5}, compress.AbsLinf, 1e-6, 931, 0x04d41030, 0x73294106},
		{"sz", []int{4, 6, 5}, compress.L2, 1e-2, 558, 0xc35b6e18, 0xaabb585b},
		{"sz", []int{4, 6, 5}, compress.L2, 1e-4, 722, 0x0f5d33bd, 0x6e2be50e},
		{"sz", []int{4, 6, 5}, compress.L2, 1e-6, 1068, 0x2233aa77, 0x659915f0},
		{"zfp", []int{4, 6, 5}, compress.AbsLinf, 1e-2, 313, 0xaa259657, 0x2938646b},
		{"zfp", []int{4, 6, 5}, compress.AbsLinf, 1e-4, 505, 0x24f5b6f3, 0xc72e57f5},
		{"zfp", []int{4, 6, 5}, compress.AbsLinf, 1e-6, 1366, 0xba92e125, 0xadb098a6},
		{"mgard", []int{4, 6, 5}, compress.AbsLinf, 1e-2, 463, 0x9c825f08, 0x2d098619},
		{"mgard", []int{4, 6, 5}, compress.AbsLinf, 1e-4, 746, 0x57c32f48, 0x9c206f7a},
		{"mgard", []int{4, 6, 5}, compress.AbsLinf, 1e-6, 1060, 0xf5cced67, 0xbccc6136},
		{"mgard", []int{4, 6, 5}, compress.L2, 1e-2, 662, 0x65cea811, 0x1a026730},
		{"mgard", []int{4, 6, 5}, compress.L2, 1e-4, 964, 0xa9c8feb7, 0x8530c35a},
		{"mgard", []int{4, 6, 5}, compress.L2, 1e-6, 1118, 0x42519429, 0x6624b181},
	}
	for _, c := range cases {
		blob, err := compress.Encode(c.codec, pinnedField(c.dims, 1), c.dims, c.mode, c.tol)
		if err != nil {
			t.Fatalf("%s %v %v %g: encode: %v", c.codec, c.dims, c.mode, c.tol, err)
		}
		if got := crc32.Checksum(blob, castagnoli); len(blob) != c.wantLen || got != c.wantCRC {
			t.Errorf("%s %v %v %g: encoded %d bytes crc32c %#08x, want %d bytes %#08x",
				c.codec, c.dims, c.mode, c.tol, len(blob), got, c.wantLen, c.wantCRC)
		}
		out, _, err := compress.Decode(blob)
		if err != nil {
			t.Fatalf("%s %v %v %g: decode: %v", c.codec, c.dims, c.mode, c.tol, err)
		}
		if got := valuesCRC(out); got != c.wantValues {
			t.Errorf("%s %v %v %g: decoded values crc32c %#08x, want %#08x",
				c.codec, c.dims, c.mode, c.tol, got, c.wantValues)
		}
	}

	v1 := []struct {
		codec      string
		wantValues uint32
	}{
		{"mgard", 0x4ba41eb4},
		{"sz", 0xcacade96},
		{"zfp", 0xca481103},
	}
	for _, c := range v1 {
		raw, err := os.ReadFile(filepath.Join("testdata", "v1", c.codec+".blob"))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := compress.Decode(raw)
		if err != nil {
			t.Fatalf("v1 %s: %v", c.codec, err)
		}
		if got := valuesCRC(out); got != c.wantValues {
			t.Errorf("v1 %s: decoded values crc32c %#08x, want %#08x", c.codec, got, c.wantValues)
		}
	}
}
