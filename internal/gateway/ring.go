package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over the gateway's backends. Each
// backend contributes Weight * vnodes virtual points derived from its
// *name* (not its address), so a backend that restarts on a new port
// keeps its slice of the keyspace, and adding or removing one backend
// remaps only the keys that hashed to its points: every other key keeps
// the backend it had, across any membership change.
//
// The ring is immutable once built; the gateway swaps whole rings under
// its lock when the backend set changes.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	b    *backend
}

// hashKey is the ring's hash: FNV-1a 64 run through a splitmix64-style
// finalizer, stable across processes and runs (routing decisions must
// be reproducible for drill replay). The finalizer matters: raw FNV-1a
// of short sequential labels like "b1#0".."b1#191" differs mostly by
// one trailing byte, and a single FNV multiply leaves those hashes in
// clustered arithmetic progressions — virtual nodes then bunch together
// on the circle and key ownership stops tracking point count.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// hashBytes hashes a request body for the ring key.
func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: full avalanche, so nearby inputs
// land far apart on the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// buildRing lays out the backends' virtual points.
func buildRing(backends []*backend) *ring {
	var points []ringPoint
	for _, b := range backends {
		w := b.weight
		if w <= 0 {
			w = 1
		}
		for v := 0; v < w*vnodes; v++ {
			points = append(points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", b.name, v)), b: b})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Tie-break on name so the ring order is deterministic even on a
		// (vanishingly unlikely) 64-bit hash collision.
		return points[i].b.name < points[j].b.name
	})
	return &ring{points: points}
}

// order returns the distinct backends in ring-walk order starting at
// key's position: element 0 is the primary owner, the rest are the
// fallback sequence a retry walks. The order is a pure function of
// (key, backend set), so two gateways over the same registry route and
// retry identically.
func (r *ring) order(key uint64) []*backend {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	seen := make(map[*backend]bool)
	var out []*backend
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.b] {
			seen[p.b] = true
			out = append(out, p.b)
		}
	}
	return out
}
