package integrity

import (
	"encoding/binary"
	"fmt"
)

// frameHeader is the byte count between the magic and the body: the u64
// body length and the u32 body checksum.
const frameHeader = 8 + 4

// FrameLen is the length of the frame of a bodyLen-byte body under magic.
func FrameLen(magic string, bodyLen int) int { return len(magic) + frameHeader + bodyLen }

// Frame wraps body in the checksummed frame under magic.
//
//errprop:deterministic the frame is a pure function of magic and body
func Frame(magic string, body []byte) []byte {
	out := make([]byte, 0, FrameLen(magic, len(body)))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = binary.LittleEndian.AppendUint32(out, Checksum(body))
	return append(out, body...)
}

// Unframe checks a frame written by Frame under one of magics (which
// share one length) and returns the matched magic, the body (a subslice
// of raw) and its checksum. raw must hold exactly one frame whose body
// is at most maxBody bytes. Errors wrap ErrTruncated or ErrCorrupt and
// carry no package prefix, so callers wrap them with their own.
//
//errprop:deterministic
func Unframe(raw []byte, maxBody int, magics ...string) (magic string, body []byte, crc uint32, err error) {
	for _, m := range magics {
		if len(raw) >= len(m) && string(raw[:len(m)]) == m {
			magic = m
			break
		}
	}
	if magic == "" {
		n := len(magics[0])
		if len(raw) < n {
			return "", nil, 0, fmt.Errorf("%w: %d bytes, shorter than magic", ErrTruncated, len(raw))
		}
		return "", nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, raw[:n])
	}
	rest := raw[len(magic):]
	if len(rest) < frameHeader {
		return "", nil, 0, fmt.Errorf("%w: missing frame header", ErrTruncated)
	}
	n := binary.LittleEndian.Uint64(rest)
	crc = binary.LittleEndian.Uint32(rest[8:])
	rest = rest[frameHeader:]
	switch {
	case n > uint64(maxBody):
		return "", nil, 0, fmt.Errorf("%w: declared body length %d exceeds %d", ErrCorrupt, n, maxBody)
	case uint64(len(rest)) < n:
		return "", nil, 0, fmt.Errorf("%w: body %d of declared %d bytes", ErrTruncated, len(rest), n)
	case uint64(len(rest)) > n:
		return "", nil, 0, fmt.Errorf("%w: %d bytes beyond declared body", ErrCorrupt, uint64(len(rest))-n)
	}
	if got := Checksum(rest); got != crc {
		return "", nil, 0, fmt.Errorf("%w: body checksum %08x != stored %08x", ErrCorrupt, got, crc)
	}
	return magic, rest, crc, nil
}
