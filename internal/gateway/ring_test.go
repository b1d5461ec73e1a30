package gateway

import (
	"fmt"
	"testing"
)

func testBackends(n int) []*backend {
	out := make([]*backend, n)
	for i := range out {
		out[i] = &backend{name: fmt.Sprintf("b%d", i), addr: fmt.Sprintf("127.0.0.1:%d", 9000+i), weight: 1}
	}
	return out
}

// TestRingDeterministicOrder: the walk order for a key is a pure
// function of (key, backend set) — two rings over the same fleet agree,
// which is what lets a drill replay its routing decisions.
func TestRingDeterministicOrder(t *testing.T) {
	bs := testBackends(5)
	r1 := buildRing(bs)
	r2 := buildRing(bs)
	for key := uint64(0); key < 1000; key += 37 {
		o1, o2 := r1.order(key), r2.order(key)
		if len(o1) != len(bs) || len(o2) != len(bs) {
			t.Fatalf("key %d: order lengths %d/%d, want %d", key, len(o1), len(o2), len(bs))
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("key %d: orders diverge at %d", key, i)
			}
		}
	}
}

// TestRingBalance: with enough virtual nodes, primary ownership spreads
// across backends — no backend starves and no backend owns everything.
func TestRingBalance(t *testing.T) {
	bs := testBackends(4)
	r := buildRing(bs)
	counts := make(map[*backend]int)
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.order(hashKey(fmt.Sprintf("key-%d", i)))[0]]++
	}
	for _, b := range bs {
		share := float64(counts[b]) / keys
		if share < 0.10 || share > 0.45 {
			t.Errorf("backend %s owns %.1f%% of keys, want a roughly fair share", b.name, share*100)
		}
	}
}

// TestRingMinimalRemap: removing one backend moves only the keys it
// owned; every other key keeps its primary.
func TestRingMinimalRemap(t *testing.T) {
	bs := testBackends(4)
	full := buildRing(bs)
	smaller := buildRing(bs[:3])
	removed := bs[3]
	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		k := hashKey(fmt.Sprintf("key-%d", i))
		before, after := full.order(k)[0], smaller.order(k)[0]
		if before == removed {
			moved++
			continue // had to move
		}
		if before != after {
			t.Fatalf("key %d: primary moved from %s to %s though %s was the one removed",
				i, before.name, after.name, removed.name)
		}
	}
	if moved == 0 {
		t.Fatal("removed backend owned no keys — ring balance is broken")
	}
}

// TestRingWeight: a weight-3 backend owns roughly three times the keys
// of a weight-1 backend.
func TestRingWeight(t *testing.T) {
	bs := testBackends(2)
	bs[1].weight = 3
	r := buildRing(bs)
	counts := make(map[*backend]int)
	const keys = 6000
	for i := 0; i < keys; i++ {
		counts[r.order(hashKey(fmt.Sprintf("key-%d", i)))[0]]++
	}
	ratio := float64(counts[bs[1]]) / float64(counts[bs[0]])
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("weight-3 vs weight-1 ownership ratio %.2f, want ~3", ratio)
	}
}

// TestRingStableAcrossRestart: ring points derive from backend *names*,
// so a backend restarting on a new port keeps its keyspace slice.
func TestRingStableAcrossRestart(t *testing.T) {
	bs := testBackends(3)
	before := buildRing(bs)
	owners := make(map[uint64]string)
	for i := 0; i < 500; i++ {
		k := hashKey(fmt.Sprintf("key-%d", i))
		owners[k] = before.order(k)[0].name
	}
	// "Restart" b1 on a different address.
	bs[1] = &backend{name: "b1", addr: "127.0.0.1:19999", weight: 1}
	after := buildRing(bs)
	for k, name := range owners {
		if got := after.order(k)[0].name; got != name {
			t.Fatalf("key %x: owner changed %s -> %s across an address-only restart", k, name, got)
		}
	}
}
