// Package integrity is the shared durability layer of the repo's
// fault-tolerant data path: CRC32C (Castagnoli) checksumming, the two
// typed error conditions every persisted record maps byte-level damage
// onto, the one checksummed frame every record is stored in, the one
// atomic file writer, and the one numbered-generation store that
// checkpoints and scoring cursors recover from.
//
// The taxonomy matters because the paper's Inequality (3) is a *guarantee*
// about the bytes it runs on: a flipped bit in a compressed blob or a
// truncated model file silently voids the bound. Decoders therefore must
// turn every corruption into one of exactly two outcomes — a typed error
// (detected) or a bit-identical decode (harmless) — and never a plausible
// but wrong value. ErrCorrupt and ErrTruncated are the sentinels callers
// branch on to distinguish "bad bytes" (client's artifact is damaged; an
// HTTP server answers 400) from "bad request" or an internal fault (500).
//
// Frame layout. Training checkpoints, scoring cursors and manifests,
// gateway registries, ahead-of-time artifacts and v3 model files all use
//
//	magic | u64 LE body length | u32 LE CRC32C(body) | body
//
// built by Frame and checked by Unframe, which refuses a short header,
// an unknown magic, a declared length over the caller's cap (before any
// allocation), a short body, trailing bytes and a checksum mismatch,
// each with a typed error. (The compress container predates this frame
// and keeps its own header-CRC plus payload-CRC layout.)
//
// Write and recover policy. Checkpoints, scoring cursors, manifests and
// chunk files, gateway registries and artifacts are written by
// WriteFileAtomic: a temp file in the target directory, fsync, rename
// over the final name, then a directory fsync, so a crash leaves the
// old file or the new one, never half of one. Records kept as numbered
// generations (Generations) are recovered newest-intact-wins: the
// newest file that decodes is used, damaged newer files are skipped, any
// other read error stops the scan, and when nothing usable is left the
// error wraps os.ErrNotExist and names every damaged file.
package integrity

import (
	"errors"
	"fmt"
	"hash/crc32"
)

var (
	// ErrCorrupt means stored bytes fail their checksum or declare an
	// impossible structure: the artifact is damaged and must not be
	// trusted. Wrap with %w so errors.Is sees through context.
	ErrCorrupt = errors.New("corrupt data: checksum or structure violation")
	// ErrTruncated means the byte stream ends before its declared length:
	// a partial write, an interrupted transfer, or a cut-off file.
	ErrTruncated = errors.New("truncated data: stream shorter than declared")
)

// IsIntegrityError reports whether err is a detected data-integrity
// failure (corruption or truncation), as opposed to a usage error.
func IsIntegrityError(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated)
}

// castagnoli is the CRC32C polynomial table. CRC32C is the conventional
// storage-path checksum (iSCSI, ext4, Snappy framing) and has hardware
// support (SSE4.2 CRC32 instruction) through hash/crc32.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C checksum of b.
func Checksum(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// ChecksumString formats a checksum for display ("crc32c:xxxxxxxx"), the
// form /v1/models reports for each registered model.
func ChecksumString(c uint32) string {
	return fmt.Sprintf("crc32c:%08x", c)
}
