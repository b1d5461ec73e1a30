package integrity_test

import (
	"bytes"
	"testing"

	"github.com/scidata/errprop/internal/checkpoint"
	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/gateway"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/score"
)

// TestFormatBytesPinned pins the on-disk bytes of every framed format no
// golden file covers (the artifact and its embedded model frame are
// pinned by internal/artifact's v2.aot). Each row encodes one fixed
// hand-built value; the length and CRC32C of the whole encoding were
// recorded before the formats moved onto the shared integrity frame, so
// a pass means files written before that move still load. A change here
// is a format change and needs a new magic, not new numbers.
func TestFormatBytesPinned(t *testing.T) {
	backends := []gateway.Backend{
		{Name: "a", Addr: "127.0.0.1:9001", Weight: 1},
		{Name: "b", Addr: "127.0.0.1:9002"},
	}
	registry := func(reg *gateway.Registry) (func() ([]byte, error), func([]byte) ([]byte, error)) {
		return reg.Encode, func(raw []byte) ([]byte, error) {
			r, err := gateway.DecodeRegistry(raw)
			if err != nil {
				return nil, err
			}
			return r.Encode()
		}
	}
	regV1Enc, regV1Re := registry(&gateway.Registry{Backends: backends})
	regV2Enc, regV2Re := registry(&gateway.Registry{Backends: backends, Artifacts: []gateway.ArtifactRef{
		{Model: "demo", Path: "models/demo.aot", Checksum: "crc32c:0123abcd"},
	}})
	cases := []struct {
		name      string
		encode    func() ([]byte, error)
		reencode  func([]byte) ([]byte, error) // decode, then encode again
		wantBytes int
		wantCRC   uint32
	}{
		{"checkpoint", func() ([]byte, error) {
			return checkpoint.Encode(&checkpoint.State{
				Trainer: &nn.TrainerState{
					Step:     7,
					Params:   [][]float64{{1, -2.5}, {0.25}},
					Sigmas:   []float64{1.5},
					IterVecs: [][]float64{{0.5, -0.5}},
					Opt:      nn.OptimizerState{Kind: "adam", Step: 7, Slots: [][]float64{{0.1, 0.2}, {0.3}}},
				},
				RNGSeed:  42,
				RNGCount: 99,
			})
		}, func(raw []byte) ([]byte, error) {
			st, err := checkpoint.Decode(raw)
			if err != nil {
				return nil, err
			}
			return checkpoint.Encode(st)
		}, 167, 0x2c7a5e34},
		{"score cursor", func() ([]byte, error) {
			return score.EncodeCursor(&score.Cursor{
				ManifestChecksum: 0xdeadbeef,
				Committed:        3,
				ResultBytes:      1234,
				Agg: &score.Aggregate{
					Chunks: 3, Skipped: 1, Samples: 200, Elems: 1800,
					Sum: []float64{1.5, -2}, Min: []float64{-1, -3}, Max: []float64{2, 0.5},
					BoundWeighted: 0.75, MaxBound: 0.01, OverBudget: 1,
					StoredBytes: 4096, RawBytes: 14400,
					SimRead: 1000, SimDecode: 2000, SimExec: 3000, Retries: 2,
				},
			})
		}, func(raw []byte) ([]byte, error) {
			c, err := score.DecodeCursor(raw)
			if err != nil {
				return nil, err
			}
			return score.EncodeCursor(c)
		}, 198, 0x65bb7cf2},
		{"score manifest", func() ([]byte, error) {
			m := &score.Manifest{Codec: "sz", Mode: compress.RelLinf, Tol: 1e-2, Features: 9, Chunks: []score.Chunk{
				{File: "chunk-000000.blob", Bytes: 812, Checksum: 0x01020304, Samples: 100, AchievedLinf: 3e-3, AchievedL2: 0.04},
				{File: "chunk-000001.blob", Bytes: 790, Checksum: 0xa0b0c0d0, Samples: 100, AchievedLinf: 2.5e-3, AchievedL2: 0.035},
			}}
			return m.Encode()
		}, func(raw []byte) ([]byte, error) {
			m, err := score.DecodeManifest(raw)
			if err != nil {
				return nil, err
			}
			return m.Encode()
		}, 142, 0x1bf03ed5},
		{"gateway registry v1", regV1Enc, regV1Re, 68, 0x9516be8b},
		{"gateway registry v2", regV2Enc, regV2Re, 110, 0xf231b7c0},
	}
	for _, tc := range cases {
		raw, err := tc.encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if len(raw) != tc.wantBytes || integrity.Checksum(raw) != tc.wantCRC {
			t.Errorf("%s: encoding is %d bytes with CRC32C %#08x, want %d bytes with %#08x",
				tc.name, len(raw), integrity.Checksum(raw), tc.wantBytes, tc.wantCRC)
		}
		re, err := tc.reencode(raw)
		if err != nil || !bytes.Equal(re, raw) {
			t.Errorf("%s: decode -> encode is not byte-identical (err %v)", tc.name, err)
		}
	}
}
