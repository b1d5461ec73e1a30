// Package gateway is the fleet-scale routing tier over errpropd
// backends: it consistent-hashes (model, request-key) across N backend
// processes, health-probes each one with a liveness/readiness
// distinction, retries connection errors and 503s with bounded
// exponential backoff and deterministic jitter, trips a per-backend
// circuit breaker on consecutive failures, and degrades gracefully —
// a model whose backends are all down gets a typed 503 naming the
// model, never a hang and never a silently wrong answer.
//
// The package deliberately does not import internal/serve: the gateway
// speaks only the backends' HTTP wire surface (/healthz, /v1/predict,
// /v1/plan, /v1/models), so any process implementing that surface can
// sit behind it, and internal/serve's own tests can import this package
// without a cycle.
//
// Why retries and hedged re-sends are safe here at all: backend predict
// responses are bit-identical for the same request bytes (the compiled
// engine's exactness discipline — see DESIGN.md), so re-sending a
// request to a different backend can change which process answers but
// never which bytes come back. A gateway over backends without that
// property would need idempotency keys; this one needs only the
// determinism the repo already certifies.
package gateway

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"

	"github.com/scidata/errprop/internal/integrity"
)

// Typed sentinels, aliased from the shared integrity vocabulary so
// callers branch the same way they do for every other durable artifact.
var (
	// ErrCorrupt aliases integrity.ErrCorrupt.
	ErrCorrupt = integrity.ErrCorrupt
	// ErrTruncated aliases integrity.ErrTruncated.
	ErrTruncated = integrity.ErrTruncated
)

// Backend is one routable errpropd process in a Registry.
type Backend struct {
	// Name is the backend's unique, stable identity. Consistent-hash ring
	// positions derive from the name, not the address, so a backend that
	// restarts on a new port keeps its slice of the keyspace.
	Name string
	// Addr is the backend's host:port.
	Addr string
	// Weight scales the backend's share of the ring (virtual-node
	// multiplier). 0 means 1.
	Weight int
}

// ArtifactRef pins one model's ahead-of-time compiled artifact
// (internal/artifact) in the manifest: the gateway verifies the file
// against the pinned checksum at load and then answers /v1/plan and
// /v1/models for the model from the artifact itself, with zero backend
// round-trips.
type ArtifactRef struct {
	// Model is the model name the artifact serves.
	Model string
	// Path locates the artifact file; relative paths resolve against
	// the registry file's directory.
	Path string
	// Checksum is the artifact body's CRC32C ("crc32c:xxxxxxxx"); a file
	// that decodes to any other identity is a typed load refusal.
	Checksum string
}

// Registry is the manifest of backends a gateway routes across, plus
// optional pinned model artifacts.
type Registry struct {
	Backends  []Backend
	Artifacts []ArtifactRef
}

const (
	registryMagic = "ERRPROPGW1"
	// registryMagicV2 frames a manifest carrying artifact references; a
	// v2 frame with zero references is refused so every registry has
	// exactly one canonical encoding (v1 without refs, v2 with).
	registryMagicV2 = "ERRPROPGW2"
	// maxRegistryBody caps the declared body length so a corrupt frame
	// cannot size an absurd allocation.
	maxRegistryBody = 1 << 24
	// maxBackends caps the declared backend count.
	maxBackends = 1 << 16
	// maxWeight caps one backend's ring weight.
	maxWeight = 1 << 10
	// backendMinBytes is the smallest possible encoded backend entry
	// (1-byte name, 1-byte addr, their length prefixes, u32 weight) —
	// the allocation guard for untrusted counts.
	backendMinBytes = 1 + 1 + 1 + 1 + 4
	// maxArtifactRefs caps the declared artifact-reference count.
	maxArtifactRefs = 1 << 16
	// maxArtifactPath caps one reference's path length.
	maxArtifactPath = 1 << 12
	// artifactRefMinBytes guards the refs allocation: 1-byte model,
	// 1-byte path, the fixed 15-byte checksum, and the length prefixes.
	artifactRefMinBytes = 1 + 1 + 2 + 1 + 1 + 15
)

// validArtifactChecksum reports whether s has the exact
// integrity.ChecksumString shape: "crc32c:" + 8 lowercase hex digits.
func validArtifactChecksum(s string) bool {
	const prefix = "crc32c:"
	if len(s) != len(prefix)+8 || s[:len(prefix)] != prefix {
		return false
	}
	for _, c := range s[len(prefix):] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// validateArtifactRef applies the structural rules shared by Encode and
// DecodeRegistry.
func validateArtifactRef(a ArtifactRef) error {
	if a.Model == "" || len(a.Model) > 255 {
		return fmt.Errorf("artifact model name length %d not in 1..255", len(a.Model))
	}
	if a.Path == "" || len(a.Path) > maxArtifactPath {
		return fmt.Errorf("artifact %q: path length %d not in 1..%d", a.Model, len(a.Path), maxArtifactPath)
	}
	if !validArtifactChecksum(a.Checksum) {
		return fmt.Errorf("artifact %q: checksum %q is not crc32c:xxxxxxxx", a.Model, a.Checksum)
	}
	return nil
}

// validateBackend applies the structural rules shared by Encode and
// DecodeRegistry, so everything the decoder accepts re-encodes (the
// fuzz bijection) and everything the encoder writes decodes.
func validateBackend(b Backend) error {
	if b.Name == "" || len(b.Name) > 255 {
		return fmt.Errorf("backend name length %d not in 1..255", len(b.Name))
	}
	if b.Addr == "" || len(b.Addr) > 255 {
		return fmt.Errorf("backend %q: addr length %d not in 1..255", b.Name, len(b.Addr))
	}
	if _, _, err := net.SplitHostPort(b.Addr); err != nil {
		return fmt.Errorf("backend %q: addr %q: %v", b.Name, b.Addr, err)
	}
	if b.Weight < 0 || b.Weight > maxWeight {
		return fmt.Errorf("backend %q: weight %d not in 0..%d", b.Name, b.Weight, maxWeight)
	}
	return nil
}

// Validate checks the registry's structural rules: every backend valid,
// names unique.
func (r *Registry) Validate() error {
	if len(r.Backends) > maxBackends {
		return fmt.Errorf("gateway: registry backend count %d exceeds %d", len(r.Backends), maxBackends)
	}
	seen := make(map[string]bool, len(r.Backends))
	for i, b := range r.Backends {
		if err := validateBackend(b); err != nil {
			return fmt.Errorf("gateway: registry backend %d: %w", i, err)
		}
		if seen[b.Name] {
			return fmt.Errorf("gateway: registry backend %d: duplicate name %q", i, b.Name)
		}
		seen[b.Name] = true
	}
	if len(r.Artifacts) > maxArtifactRefs {
		return fmt.Errorf("gateway: registry artifact count %d exceeds %d", len(r.Artifacts), maxArtifactRefs)
	}
	seenModel := make(map[string]bool, len(r.Artifacts))
	for i, a := range r.Artifacts {
		if err := validateArtifactRef(a); err != nil {
			return fmt.Errorf("gateway: registry artifact %d: %w", i, err)
		}
		if seenModel[a.Model] {
			return fmt.Errorf("gateway: registry artifact %d: duplicate model %q", i, a.Model)
		}
		seenModel[a.Model] = true
	}
	return nil
}

// Encode serializes the registry into its integrity frame, so damaged
// registry bytes decode to a typed integrity error, never to a silently
// different fleet.
//
//errprop:deterministic the frame is a pure function of the registry
func (r *Registry) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, uint32(len(r.Backends)))
	for _, be := range r.Backends {
		b.WriteByte(byte(len(be.Name)))
		b.WriteString(be.Name)
		b.WriteByte(byte(len(be.Addr)))
		b.WriteString(be.Addr)
		binary.Write(&b, binary.LittleEndian, uint32(be.Weight))
	}
	// A manifest without artifact references keeps the original v1
	// framing byte for byte; one with references gets the v2 magic and
	// an appended artifact section. Each registry value has exactly one
	// encoding either way, preserving the decode/encode bijection.
	magic := registryMagic
	if len(r.Artifacts) > 0 {
		magic = registryMagicV2
		binary.Write(&b, binary.LittleEndian, uint32(len(r.Artifacts)))
		for _, a := range r.Artifacts {
			b.WriteByte(byte(len(a.Model)))
			b.WriteString(a.Model)
			binary.Write(&b, binary.LittleEndian, uint16(len(a.Path)))
			b.WriteString(a.Path)
			b.WriteByte(byte(len(a.Checksum)))
			b.WriteString(a.Checksum)
		}
	}
	return integrity.Frame(magic, b.Bytes()), nil
}

// DecodeRegistry parses a registry frame. Damage surfaces as an error
// wrapping ErrCorrupt or ErrTruncated; DecodeRegistry never panics and
// never returns a partially filled registry without an error.
//
//errprop:deterministic
func DecodeRegistry(raw []byte) (*Registry, error) {
	magic, body, _, err := integrity.Unframe(raw, maxRegistryBody, registryMagic, registryMagicV2)
	if err != nil {
		return nil, fmt.Errorf("gateway: registry: %w", err)
	}
	return decodeRegistryBody(bytes.NewReader(body), magic == registryMagicV2)
}

// decodeRegistryBody parses the checksum-verified body. Structural
// inconsistency inside verified bytes means the registry was written
// wrong — ErrCorrupt.
func decodeRegistryBody(r *bytes.Reader, withArtifacts bool) (*Registry, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("gateway: registry: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	var count uint32
	if binary.Read(r, binary.LittleEndian, &count) != nil {
		return nil, bad("missing backend count")
	}
	if count > maxBackends {
		return nil, bad("backend count %d exceeds %d", count, maxBackends)
	}
	// Guard the allocation against a checksummed-but-absurd count.
	if uint64(count)*backendMinBytes > uint64(r.Len()) {
		return nil, bad("backend count %d exceeds body", count)
	}
	reg := &Registry{Backends: make([]Backend, count)}
	str := func(what string, i int) (string, error) {
		l, err := r.ReadByte()
		if err != nil {
			return "", bad("entry %d: missing %s length", i, what)
		}
		s := make([]byte, l)
		if _, err := io.ReadFull(r, s); err != nil {
			return "", bad("entry %d: short %s", i, what)
		}
		return string(s), nil
	}
	for i := range reg.Backends {
		be := &reg.Backends[i]
		var err error
		if be.Name, err = str("backend name", i); err != nil {
			return nil, err
		}
		if be.Addr, err = str("backend addr", i); err != nil {
			return nil, err
		}
		var w uint32
		if binary.Read(r, binary.LittleEndian, &w) != nil {
			return nil, bad("backend %d: missing weight", i)
		}
		be.Weight = int(w)
	}
	if withArtifacts {
		var acount uint32
		if binary.Read(r, binary.LittleEndian, &acount) != nil {
			return nil, bad("missing artifact count")
		}
		// A v2 frame with zero refs would be a second encoding of a
		// v1-encodable registry; refuse it so decode/encode stays a
		// bijection.
		if acount == 0 {
			return nil, bad("v2 registry declares no artifacts")
		}
		if acount > maxArtifactRefs {
			return nil, bad("artifact count %d exceeds %d", acount, maxArtifactRefs)
		}
		if uint64(acount)*artifactRefMinBytes > uint64(r.Len()) {
			return nil, bad("artifact count %d exceeds body", acount)
		}
		reg.Artifacts = make([]ArtifactRef, acount)
		for i := range reg.Artifacts {
			a := &reg.Artifacts[i]
			var err error
			if a.Model, err = str("artifact model", i); err != nil {
				return nil, err
			}
			var plen uint16
			if binary.Read(r, binary.LittleEndian, &plen) != nil {
				return nil, bad("artifact %d: missing path length", i)
			}
			p := make([]byte, plen)
			if _, err := io.ReadFull(r, p); err != nil {
				return nil, bad("artifact %d: short path", i)
			}
			a.Path = string(p)
			if a.Checksum, err = str("artifact checksum", i); err != nil {
				return nil, err
			}
		}
	}
	if r.Len() != 0 {
		return nil, bad("%d trailing bytes", r.Len())
	}
	if err := reg.Validate(); err != nil {
		return nil, fmt.Errorf("gateway: registry: %w: %v", ErrCorrupt, err)
	}
	return reg, nil
}

// WriteRegistryFile atomically writes the registry under path
// (integrity.WriteFileAtomic), so a crash mid-write never leaves a half
// manifest under the final name.
func WriteRegistryFile(path string, r *Registry) error {
	raw, err := r.Encode()
	if err != nil {
		return err
	}
	return integrity.WriteFileAtomic(path, raw)
}

// ReadRegistryFile reads and decodes a registry manifest file.
func ReadRegistryFile(path string) (*Registry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := DecodeRegistry(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
