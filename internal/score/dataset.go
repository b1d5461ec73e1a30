package score

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/integrity"
)

// DatasetConfig configures WriteDataset.
type DatasetConfig struct {
	// Codec is the compress codec name ("sz", "zfp", "mgard").
	Codec string
	// Mode and Tol are the codec error mode and tolerance.
	Mode compress.Mode
	Tol  float64
	// ChunkSamples is the number of samples per chunk (default 256; the
	// final chunk may be smaller).
	ChunkSamples int
}

// WriteDataset splits a feature-major field (features x samples, sample
// c of feature f at field[f*samples+c]) into chunks of ChunkSamples
// samples, compresses each chunk under the configured bound, writes the
// chunk files plus a checksummed manifest into dir, and returns the
// manifest. Each chunk's *achieved* reconstruction error is measured
// against the original data (by really decoding the blob just written)
// and certified into the manifest — scoring later feeds that measured
// error, not the requested tolerance, through Inequality (3).
//
//errprop:deterministic chunk bytes and manifest are a pure function of (field, config)
func WriteDataset(dir string, field []float64, features int, cfg DatasetConfig) (*Manifest, error) {
	if features <= 0 {
		return nil, fmt.Errorf("score: dataset features %d must be positive", features)
	}
	if len(field) == 0 || len(field)%features != 0 {
		return nil, fmt.Errorf("score: dataset field length %d not a positive multiple of features %d", len(field), features)
	}
	if cfg.ChunkSamples == 0 {
		cfg.ChunkSamples = 256
	}
	if cfg.ChunkSamples < 0 {
		return nil, fmt.Errorf("score: dataset chunk samples %d must be positive", cfg.ChunkSamples)
	}
	samples := len(field) / features
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manifest{Codec: cfg.Codec, Mode: cfg.Mode, Tol: cfg.Tol, Features: features}
	buf := make([]float64, 0, features*cfg.ChunkSamples)
	for lo := 0; lo < samples; lo += cfg.ChunkSamples {
		hi := lo + cfg.ChunkSamples
		if hi > samples {
			hi = samples
		}
		cols := hi - lo
		// Gather the column range into a contiguous feature-major block.
		buf = buf[:0]
		for f := 0; f < features; f++ {
			buf = append(buf, field[f*samples+lo:f*samples+hi]...)
		}
		blob, err := compress.Encode(cfg.Codec, buf, []int{features, cols}, cfg.Mode, cfg.Tol)
		if err != nil {
			return nil, fmt.Errorf("score: dataset chunk %d: %w", len(m.Chunks), err)
		}
		// Certify the achieved error: decode what was just encoded and
		// measure against the original block.
		recon, _, err := compress.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("score: dataset chunk %d: verify decode: %w", len(m.Chunks), err)
		}
		linf, l2 := compress.MeasureError(buf, recon)
		name := fmt.Sprintf("chunk-%06d.blob", len(m.Chunks))
		if err := integrity.WriteFileAtomic(filepath.Join(dir, name), blob); err != nil {
			return nil, fmt.Errorf("score: dataset chunk %d: %w", len(m.Chunks), err)
		}
		m.Chunks = append(m.Chunks, Chunk{
			File:         name,
			Bytes:        int64(len(blob)),
			Checksum:     integrity.Checksum(blob),
			Samples:      cols,
			AchievedLinf: linf,
			AchievedL2:   l2,
		})
	}
	if err := WriteManifestFile(filepath.Join(dir, ManifestName), m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeChunk verifies one chunk's raw file bytes against its manifest
// entry and decodes it: size and CRC32C first, then the container's own
// checksums, then the structural cross-checks (codec, feature dimension,
// sample count) that bind the decoded data back to the manifest. Any
// mismatch is a typed integrity error; a nil error certifies the
// returned block is exactly the features x samples block the manifest
// describes.
//
//errprop:deterministic reconstruction depends only on (entry, bytes)
func DecodeChunk(m *Manifest, c Chunk, raw []byte) ([]float64, error) {
	if int64(len(raw)) < c.Bytes {
		return nil, fmt.Errorf("score: chunk %s: %w: %d of %d manifest bytes", c.File, ErrTruncated, len(raw), c.Bytes)
	}
	if int64(len(raw)) != c.Bytes {
		return nil, fmt.Errorf("score: chunk %s: %w: %d bytes, manifest says %d", c.File, ErrCorrupt, len(raw), c.Bytes)
	}
	if got := integrity.Checksum(raw); got != c.Checksum {
		return nil, fmt.Errorf("score: chunk %s: %w: checksum %08x != manifest %08x", c.File, ErrCorrupt, got, c.Checksum)
	}
	data, blob, err := compress.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("score: chunk %s: %w", c.File, err)
	}
	if blob.CodecName != m.Codec {
		return nil, fmt.Errorf("score: chunk %s: %w: codec %q != manifest %q", c.File, ErrCorrupt, blob.CodecName, m.Codec)
	}
	if len(blob.Dims) == 0 || blob.Dims[0] != m.Features {
		return nil, fmt.Errorf("score: chunk %s: %w: feature dim %v != manifest %d", c.File, ErrCorrupt, blob.Dims, m.Features)
	}
	if len(data) != m.Features*c.Samples {
		return nil, fmt.Errorf("score: chunk %s: %w: %d values, manifest says %d x %d", c.File, ErrCorrupt, len(data), m.Features, c.Samples)
	}
	return data, nil
}
