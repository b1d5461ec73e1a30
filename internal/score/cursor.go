package score

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"github.com/scidata/errprop/internal/integrity"
)

// Cursor is a scoring run's chunk-granular progress checkpoint: chunks
// [0, Committed) are durably accounted for, Agg is the running aggregate
// over exactly those chunks, and ResultBytes is the result-log offset
// their JSON lines end at. A cursor is bound to one manifest via the
// manifest frame's checksum, so a cursor can never resume a different
// dataset.
type Cursor struct {
	// ManifestChecksum is the CRC32C of the manifest's encoded frame.
	ManifestChecksum uint32
	// Committed is the number of leading chunks committed.
	Committed int64
	// ResultBytes is the durable result-log length at Committed.
	ResultBytes int64
	// Agg is the running aggregate over the committed chunks.
	Agg *Aggregate
}

const (
	cursorMagic = "ERRPROPSC1"
	// maxCursorBody caps the declared body length (a cursor is a few
	// hundred bytes plus three outDim-length vectors).
	maxCursorBody = 1 << 26
	// maxCursorVec caps the declared aggregate vector length.
	maxCursorVec = 1 << 22
	// CursorExt is the cursor file extension.
	CursorExt = ".cur"
)

// cursors names cursor files cursor-<committed as %012d>.cur.
var cursors = integrity.Generations{Prefix: "cursor-", Ext: CursorExt}

// EncodeCursor serializes c into its integrity frame.
//
//errprop:deterministic the frame is a pure function of the cursor state
func EncodeCursor(c *Cursor) ([]byte, error) {
	if c == nil || c.Agg == nil {
		return nil, fmt.Errorf("score: nil cursor")
	}
	if c.Committed < 0 || c.ResultBytes < 0 {
		return nil, fmt.Errorf("score: cursor committed %d / result bytes %d negative", c.Committed, c.ResultBytes)
	}
	if len(c.Agg.Sum) != len(c.Agg.Min) || len(c.Agg.Sum) != len(c.Agg.Max) {
		return nil, fmt.Errorf("score: cursor aggregate vector lengths differ")
	}
	var b bytes.Buffer
	w := func(v any) { binary.Write(&b, binary.LittleEndian, v) }
	f := func(v float64) { w(math.Float64bits(v)) }
	vec := func(v []float64) {
		for _, x := range v {
			f(x)
		}
	}
	a := c.Agg
	w(c.ManifestChecksum)
	w(uint64(c.Committed))
	w(uint64(c.ResultBytes))
	w(uint64(a.Chunks))
	w(uint64(a.Skipped))
	w(uint64(a.Samples))
	w(uint64(a.Elems))
	w(uint64(a.OverBudget))
	w(uint64(a.StoredBytes))
	w(uint64(a.RawBytes))
	w(uint64(a.SimRead))
	w(uint64(a.SimDecode))
	w(uint64(a.SimExec))
	w(uint64(a.Retries))
	f(a.BoundWeighted)
	f(a.MaxBound)
	w(uint32(len(a.Sum)))
	vec(a.Sum)
	vec(a.Min)
	vec(a.Max)
	return integrity.Frame(cursorMagic, b.Bytes()), nil
}

// DecodeCursor parses a cursor frame; damage surfaces as a typed
// integrity error, never as silently wrong progress.
//
//errprop:deterministic
func DecodeCursor(raw []byte) (*Cursor, error) {
	_, body, _, err := integrity.Unframe(raw, maxCursorBody, cursorMagic)
	if err != nil {
		return nil, fmt.Errorf("score: cursor: %w", err)
	}
	bad := func(what string) error {
		return fmt.Errorf("score: cursor: %w: inconsistent %s", ErrCorrupt, what)
	}
	r := bytes.NewReader(body)
	u64 := func() (uint64, bool) {
		var v uint64
		if binary.Read(r, binary.LittleEndian, &v) != nil {
			return 0, false
		}
		return v, true
	}
	i64 := func(what string) (int64, error) {
		v, ok := u64()
		if !ok || v > math.MaxInt64 {
			return 0, bad(what)
		}
		return int64(v), nil
	}
	f64 := func(what string) (float64, error) {
		v, ok := u64()
		if !ok {
			return 0, bad(what)
		}
		return math.Float64frombits(v), nil
	}

	c := &Cursor{Agg: &Aggregate{}}
	var mc uint32
	if binary.Read(r, binary.LittleEndian, &mc) != nil {
		return nil, bad("manifest checksum")
	}
	c.ManifestChecksum = mc
	a := c.Agg
	for _, fld := range []struct {
		what string
		dst  *int64
	}{
		{"committed", &c.Committed},
		{"result bytes", &c.ResultBytes},
		{"chunk count", &a.Chunks},
		{"skip count", &a.Skipped},
		{"sample count", &a.Samples},
		{"element count", &a.Elems},
		{"over-budget count", &a.OverBudget},
		{"stored bytes", &a.StoredBytes},
		{"raw bytes", &a.RawBytes},
	} {
		if *fld.dst, err = i64(fld.what); err != nil {
			return nil, err
		}
	}
	for _, fld := range []struct {
		what string
		dst  *time.Duration
	}{
		{"read time", &a.SimRead},
		{"decode time", &a.SimDecode},
		{"exec time", &a.SimExec},
	} {
		v, err := i64(fld.what)
		if err != nil {
			return nil, err
		}
		*fld.dst = time.Duration(v)
	}
	if a.Retries, err = i64("retry count"); err != nil {
		return nil, err
	}
	if a.BoundWeighted, err = f64("weighted bound"); err != nil {
		return nil, err
	}
	if a.MaxBound, err = f64("max bound"); err != nil {
		return nil, err
	}
	var n uint32
	if binary.Read(r, binary.LittleEndian, &n) != nil || n > maxCursorVec {
		return nil, bad("aggregate width")
	}
	if uint64(n)*24 != uint64(r.Len()) {
		return nil, bad("aggregate width (body length mismatch)")
	}
	for _, dst := range []*[]float64{&a.Sum, &a.Min, &a.Max} {
		v := make([]float64, n)
		for i := range v {
			if v[i], err = f64("aggregate vector"); err != nil {
				return nil, err
			}
		}
		*dst = v
	}
	// The committer folds exactly one chunk per commit, so a cursor whose
	// counters disagree was written wrong.
	if c.Committed != a.Chunks {
		return nil, bad("committed count != aggregate chunk count")
	}
	return c, nil
}

// SaveCursor atomically writes c into dir under the canonical name for
// its committed count (integrity.WriteFileAtomic) and returns the final
// path.
func SaveCursor(dir string, c *Cursor) (string, error) {
	raw, err := EncodeCursor(c)
	if err != nil {
		return "", err
	}
	return cursors.Save(dir, c.Committed, raw)
}

// ListCursors returns the canonical cursor paths in dir, newest (highest
// committed count) first. A missing dir is an empty list, not an error.
func ListCursors(dir string) ([]string, error) { return cursors.List(dir) }

// LoadLatestCursor loads the newest decodable cursor in dir, skipping
// damaged files — crash safety must not depend on the last write
// surviving. Returns an error wrapping os.ErrNotExist when dir holds no
// usable cursor; damaged files encountered along the way are named in
// it.
func LoadLatestCursor(dir string) (*Cursor, string, error) {
	c, path, err := integrity.LoadNewest(cursors, dir, DecodeCursor)
	if err != nil {
		return nil, "", fmt.Errorf("score: %w", err)
	}
	return c, path, nil
}

// PruneCursors removes all but the keep newest cursors in dir. keep <= 0
// keeps everything.
func PruneCursors(dir string, keep int) error { return cursors.Prune(dir, keep) }
