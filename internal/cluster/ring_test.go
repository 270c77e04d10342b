package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAcrossOrder(t *testing.T) {
	workers := []string{"http://c:3", "http://a:1", "http://b:2"}
	r1, err := NewRing(workers)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	r2, err := NewRing([]string{"http://b:2", "http://c:3", "http://a:1", "http://a:1"})
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("user-%d", i)
		if r1.Owner(id) != r2.Owner(id) {
			t.Fatalf("user %s owned by %s vs %s under reordered worker list", id, r1.Owner(id), r2.Owner(id))
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	workers := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r, err := NewRing(workers)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("user-%d", i))]++
	}
	for _, w := range workers {
		got := counts[w]
		// With 64 vnodes per worker the split is not exact, but every
		// worker must carry a real share — a worker at under half its
		// fair share indicates broken point placement.
		if got < n/len(workers)/2 {
			t.Fatalf("worker %s owns only %d of %d users: %v", w, got, n, counts)
		}
	}
}

func TestRingRejectsBadConfig(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty worker set accepted")
	}
	if _, err := NewRing([]string{"http://a", ""}); err == nil {
		t.Fatal("empty worker name accepted")
	}
}
