// Package score is the dataset-scale offline scoring subsystem: it
// streams an ordered manifest of checksummed compressed chunks through a
// bounded-memory pipeline — simulated-storage read billing, real
// decompression, compiled-engine forward passes, and a deterministic QoI
// aggregation — and emits a per-chunk result carrying a *certified*
// error bound: the chunk's achieved codec error (measured at dataset
// write time) fed through Inequality (3) together with the model's
// quantization bound.
//
// Three invariants the package is built around:
//
//   - Determinism: the per-chunk results and the final aggregate are a
//     pure function of (manifest, chunk bytes, network, config knobs
//     that name themselves as semantic). Worker count and goroutine
//     schedule never change a single output bit: chunks reduce in fixed
//     chunk-index order through a commit window.
//   - Crash safety: progress is a chunk-granular cursor, kept in
//     internal/integrity's generation store like training checkpoints
//     (atomic writes, newest-intact-wins recovery). A run killed at any
//     instant resumes bit-identically — same
//     aggregate, same per-chunk outputs and bounds — because the cursor
//     stores the running aggregate and the byte offset of the durable
//     result log, which resume truncates back to before continuing.
//   - Detect-or-bound: a damaged manifest, chunk, or cursor decodes to a
//     typed integrity error, never to silently wrong numbers. Corrupt
//     chunks are either fatal or skipped-with-report, by configuration.
package score

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/integrity"
)

// Typed sentinels, shared with the rest of the fault path.
var (
	// ErrCorrupt aliases integrity.ErrCorrupt.
	ErrCorrupt = integrity.ErrCorrupt
	// ErrTruncated aliases integrity.ErrTruncated.
	ErrTruncated = integrity.ErrTruncated
)

// Chunk is one entry of a Manifest: a compressed blob file plus the
// integrity and certified-error metadata the scorer needs to admit it.
type Chunk struct {
	// File is the chunk's file name, relative to the manifest directory.
	// Decoded names never contain path separators (the decoder rejects
	// them), so a corrupt manifest cannot point the scorer outside its
	// dataset directory.
	File string
	// Bytes is the exact stored size of the chunk file.
	Bytes int64
	// Checksum is the CRC32C of the chunk file's bytes. It covers the
	// whole container (which carries its own internal checksums), so the
	// scorer detects a swapped or re-encoded chunk, not just bit rot.
	Checksum uint32
	// Samples is the number of data samples (batch columns) in the chunk.
	Samples int
	// AchievedLinf is the chunk's achieved pointwise reconstruction
	// error max_i |x_i - x~_i|, measured against the original data when
	// the dataset was written. This — not the requested tolerance — is
	// what feeds the certified per-chunk bound.
	AchievedLinf float64
	// AchievedL2 is the whole-chunk L2 reconstruction error, recorded
	// for reporting alongside the pointwise bound.
	AchievedL2 float64
}

// Manifest is the ordered chunk index of a scored dataset.
type Manifest struct {
	// Codec is the compress codec every chunk was encoded with.
	Codec string
	// Mode and Tol are the error mode and tolerance the dataset was
	// compressed under (the *requested* bound; each chunk additionally
	// records its achieved error).
	Mode compress.Mode
	Tol  float64
	// Features is the per-sample feature count (the network input
	// dimension the dataset was laid out for); every chunk stores a
	// Features x Samples feature-major block.
	Features int
	// Chunks lists the dataset's chunks in scoring order.
	Chunks []Chunk
}

const (
	manifestMagic = "ERRPROPSM1"
	// ManifestName is the canonical manifest file name inside a dataset
	// directory.
	ManifestName = "MANIFEST"
	// maxManifestBody caps the declared body length (256 MiB is ~1.6M
	// chunks) so a corrupt frame cannot size an absurd allocation.
	maxManifestBody = 1 << 28
	// maxChunks caps the declared chunk count.
	maxChunks = 1 << 24
	// maxChunkSamples caps one chunk's declared sample count.
	maxChunkSamples = 1 << 28
	// maxFeatures caps the declared feature dimension.
	maxFeatures = 1 << 24
)

// TotalSamples sums the sample counts of all chunks.
func (m *Manifest) TotalSamples() int64 {
	var n int64
	for _, c := range m.Chunks {
		n += int64(c.Samples)
	}
	return n
}

// Encode serializes the manifest into its integrity frame, so damaged
// manifest bytes decode to a typed integrity error, never to a silently
// different chunk list.
//
//errprop:deterministic the frame is a pure function of the manifest
func (m *Manifest) Encode() ([]byte, error) {
	if len(m.Codec) == 0 || len(m.Codec) > 255 {
		return nil, fmt.Errorf("score: manifest codec name length %d not in 1..255", len(m.Codec))
	}
	if m.Features <= 0 || m.Features > maxFeatures {
		return nil, fmt.Errorf("score: manifest features %d not in 1..%d", m.Features, maxFeatures)
	}
	if len(m.Chunks) > maxChunks {
		return nil, fmt.Errorf("score: manifest chunk count %d exceeds %d", len(m.Chunks), maxChunks)
	}
	var b bytes.Buffer
	w := func(v any) { binary.Write(&b, binary.LittleEndian, v) }
	b.WriteByte(byte(len(m.Codec)))
	b.WriteString(m.Codec)
	b.WriteByte(byte(m.Mode))
	w(math.Float64bits(m.Tol))
	w(uint32(m.Features))
	w(uint32(len(m.Chunks)))
	for i, c := range m.Chunks {
		if err := checkChunkName(c.File); err != nil {
			return nil, fmt.Errorf("score: manifest chunk %d: %w", i, err)
		}
		if c.Bytes < 0 || c.Samples <= 0 || c.Samples > maxChunkSamples {
			return nil, fmt.Errorf("score: manifest chunk %d: bytes %d / samples %d out of range", i, c.Bytes, c.Samples)
		}
		b.WriteByte(byte(len(c.File)))
		b.WriteString(c.File)
		w(uint64(c.Bytes))
		w(c.Checksum)
		w(uint32(c.Samples))
		w(math.Float64bits(c.AchievedLinf))
		w(math.Float64bits(c.AchievedL2))
	}
	return integrity.Frame(manifestMagic, b.Bytes()), nil
}

// checkChunkName rejects chunk file names that could escape the dataset
// directory or collide with special names.
func checkChunkName(name string) error {
	if name == "" || len(name) > 255 {
		return fmt.Errorf("chunk file name length %d not in 1..255", len(name))
	}
	if name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("chunk file name %q must be a plain file name", name)
	}
	return nil
}

// DecodeManifest parses a manifest frame. Damage surfaces as an error
// wrapping ErrCorrupt or ErrTruncated; DecodeManifest never panics and
// never returns a partially filled manifest without an error.
//
//errprop:deterministic
func DecodeManifest(raw []byte) (*Manifest, error) {
	_, body, _, err := integrity.Unframe(raw, maxManifestBody, manifestMagic)
	if err != nil {
		return nil, fmt.Errorf("score: manifest: %w", err)
	}
	return decodeManifestBody(bytes.NewReader(body))
}

// decodeManifestBody parses the checksum-verified body. Structural
// inconsistency inside verified bytes means the manifest was written
// wrong — ErrCorrupt.
func decodeManifestBody(r *bytes.Reader) (*Manifest, error) {
	bad := func(what string) error {
		return fmt.Errorf("score: manifest: %w: inconsistent %s", ErrCorrupt, what)
	}
	u32 := func() (uint32, bool) {
		var v uint32
		if binary.Read(r, binary.LittleEndian, &v) != nil {
			return 0, false
		}
		return v, true
	}
	f64 := func() (float64, bool) {
		var v uint64
		if binary.Read(r, binary.LittleEndian, &v) != nil {
			return 0, false
		}
		return math.Float64frombits(v), true
	}
	str := func(what string) (string, error) {
		l, err := r.ReadByte()
		if err != nil {
			return "", bad(what + " length")
		}
		s := make([]byte, l)
		if _, err := io.ReadFull(r, s); err != nil {
			return "", bad(what)
		}
		return string(s), nil
	}

	m := &Manifest{}
	var err error
	if m.Codec, err = str("codec name"); err != nil {
		return nil, err
	}
	if m.Codec == "" {
		return nil, bad("empty codec name")
	}
	mode, err := r.ReadByte()
	if err != nil {
		return nil, bad("mode")
	}
	m.Mode = compress.Mode(mode)
	tol, ok := f64()
	if !ok {
		return nil, bad("tolerance")
	}
	m.Tol = tol
	feats, ok := u32()
	if !ok || feats == 0 || feats > maxFeatures {
		return nil, bad("feature count")
	}
	m.Features = int(feats)
	n, ok := u32()
	if !ok || n > maxChunks {
		return nil, bad("chunk count")
	}
	// Guard the allocation against a checksummed-but-absurd count: each
	// chunk needs at least 26 body bytes.
	if uint64(n)*26 > uint64(r.Len()) {
		return nil, bad("chunk count (exceeds body)")
	}
	m.Chunks = make([]Chunk, n)
	for i := range m.Chunks {
		c := &m.Chunks[i]
		if c.File, err = str(fmt.Sprintf("chunk %d file name", i)); err != nil {
			return nil, err
		}
		if err := checkChunkName(c.File); err != nil {
			return nil, fmt.Errorf("score: manifest: %w: chunk %d: %v", ErrCorrupt, i, err)
		}
		var sz uint64
		if binary.Read(r, binary.LittleEndian, &sz) != nil {
			return nil, bad(fmt.Sprintf("chunk %d size", i))
		}
		if sz > math.MaxInt64 {
			return nil, bad(fmt.Sprintf("chunk %d size (overflow)", i))
		}
		c.Bytes = int64(sz)
		if c.Checksum, ok = u32(); !ok {
			return nil, bad(fmt.Sprintf("chunk %d checksum", i))
		}
		samples, ok := u32()
		if !ok || samples == 0 || samples > maxChunkSamples {
			return nil, bad(fmt.Sprintf("chunk %d sample count", i))
		}
		c.Samples = int(samples)
		if c.AchievedLinf, ok = f64(); !ok {
			return nil, bad(fmt.Sprintf("chunk %d achieved linf", i))
		}
		if c.AchievedL2, ok = f64(); !ok {
			return nil, bad(fmt.Sprintf("chunk %d achieved l2", i))
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("score: manifest: %w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	return m, nil
}

// WriteManifestFile atomically writes the manifest under path
// (integrity.WriteFileAtomic), so a crash mid-write never leaves a half
// manifest under the final name.
func WriteManifestFile(path string, m *Manifest) error {
	raw, err := m.Encode()
	if err != nil {
		return err
	}
	return integrity.WriteFileAtomic(path, raw)
}

// ReadManifestFile reads and decodes a manifest file.
func ReadManifestFile(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
