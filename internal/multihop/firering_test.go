package multihop

import (
	"reflect"
	"sort"
	"testing"
)

// firering_test.go pins the bucket-ring calendar's contract: expired
// sets come back in ascending node order, and entries filed several ring
// widths ahead — clamped on filing, re-filed on visit — still expire at
// their exact slot, in ascending slot order.

func TestNextPow2(t *testing.T) {
	cases := map[int64]int64{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestFireRingFarFutureExact files entries up to ten ring widths ahead
// — the case a horizon past maxRingSpan produces — and silently shifts
// some further out mid-run, as carrier freezes do. Every entry must
// still expire exactly at its fire slot, slots ascending, each expired
// set ascending in node order.
func TestFireRingFarFutureExact(t *testing.T) {
	const w = int64(maxRingSpan)
	fire := []int64{5*w + 3, 2*w + 7, w, 3*w - 1, 7, 2*w + 7, 10 * w, w + 1, 0, 9*w + 5}
	var ring fireRing
	ring.init(len(fire), 8*w)
	if ring.mask != w-1 {
		t.Fatalf("ring width %d, want the %d cap", ring.mask+1, w)
	}
	ring.rebuild(fire)
	limit := 11 * w

	type event struct {
		slot  int64
		nodes []int
	}
	var got []event
	for {
		slot, expired := ring.nextEvent(fire, limit, nil)
		if slot >= limit {
			break
		}
		got = append(got, event{slot, expired})
		if len(got) == 2 {
			// Freeze-shift two pending entries several rings further out
			// without telling the calendar.
			fire[1] += 4 * w // 2w+7 -> 6w+7, leaving node 5 alone at 2w+7
			fire[3] += 6*w + 2
		}
	}

	var want []event
	bySlot := map[int64][]int{}
	for i, f := range fire {
		bySlot[f] = append(bySlot[f], i)
	}
	var slots []int64
	for f := range bySlot {
		slots = append(slots, f)
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a] < slots[b] })
	for _, f := range slots {
		want = append(want, event{f, bySlot[f]})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expiry sequence\ngot  %v\nwant %v", got, want)
	}
}

// TestFireRingExpiredAscending pins the collection order the engine's
// PRNG-draw contract depends on: whatever order entries were filed in a
// bucket, the expired run comes back in ascending node order.
func TestFireRingExpiredAscending(t *testing.T) {
	const n = 64
	fire := make([]int64, n)
	for i := range fire {
		fire[i] = 7 // everyone expires at once, filed in index order
	}
	var ring fireRing
	ring.init(n, 64)
	ring.rebuild(fire)
	slot, expired := ring.nextEvent(fire, 100, nil)
	if slot != 7 {
		t.Fatalf("slot = %d, want 7", slot)
	}
	if len(expired) != n {
		t.Fatalf("collected %d nodes, want %d", len(expired), n)
	}
	for i := 1; i < len(expired); i++ {
		if expired[i-1] >= expired[i] {
			t.Fatalf("expired not ascending at %d: %v", i, expired)
		}
	}
}
