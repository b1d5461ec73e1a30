package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"github.com/scidata/errprop/internal/integrity"
)

// bodyWriter accumulates the canonical little-endian body encoding.
type bodyWriter struct {
	buf bytes.Buffer
}

func (w *bodyWriter) u8(v uint8)   { w.buf.WriteByte(v) }
func (w *bodyWriter) u32(v uint32) { w.buf.Write(binary.LittleEndian.AppendUint32(nil, v)) }
func (w *bodyWriter) f64(v float64) {
	w.buf.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
}

// str8 writes a u8-length-prefixed string (the format name).
func (w *bodyWriter) str8(s string) error {
	if len(s) > 0xff {
		return fmt.Errorf("artifact: string %q exceeds 255 bytes", s[:32])
	}
	w.u8(uint8(len(s)))
	w.buf.WriteString(s)
	return nil
}

// section writes a u32-length-prefixed byte section.
func (w *bodyWriter) section(b []byte) {
	w.u32(uint32(len(b)))
	w.buf.Write(b)
}

// bodyReader walks an untrusted body, accumulating the first error.
type bodyReader struct {
	raw []byte
	off int
	err error
}

func (r *bodyReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corrupt(format, args...)
	}
}

func (r *bodyReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.raw)-r.off < n {
		r.err = fmt.Errorf("artifact: %w: need %d bytes at offset %d, have %d", integrity.ErrTruncated, n, r.off, len(r.raw)-r.off)
		return nil
	}
	b := r.raw[r.off : r.off+n]
	r.off += n
	return b
}

func (r *bodyReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *bodyReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *bodyReader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// nonneg reads a float that must be finite and >= 0 (σ, row norms and
// steps are magnitudes by construction; a NaN or Inf here would silently
// poison every certified bound derived later).
func (r *bodyReader) nonneg(what string) float64 {
	v := r.f64()
	if r.err == nil && (math.IsNaN(v) || math.IsInf(v, 0) || v < 0) {
		r.fail("non-finite or negative %s %v", what, v)
	}
	return v
}

func (r *bodyReader) str8() string {
	n := int(r.u8())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (r *bodyReader) section() []byte {
	n := r.u32()
	return r.take(int(n))
}
