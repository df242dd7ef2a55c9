package multihop

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"selfishmac/internal/rng"
)

// firering_test.go pins the bucket-ring calendar's contract: expired
// sets come back in ascending node order, entries filed several ring
// widths ahead — clamped on filing, re-filed on visit — still expire at
// their exact slot, in ascending slot order, and the occupancy bitmap
// finds the next bucket across word boundaries and the ring's wrap.

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

// naiveNextEvent is the calendar's oracle: a min-scan over fire[]. It
// returns the smallest fire slot and every node at it, ascending, or
// limit and nil when that slot is not before limit.
func naiveNextEvent(fire []int64, limit int64) (int64, []int) {
	t := limit
	for _, f := range fire {
		t = min(t, f)
	}
	if t >= limit {
		return limit, nil
	}
	var nodes []int
	for i, f := range fire {
		if f == t {
			nodes = append(nodes, i)
		}
	}
	return t, nodes
}

// TestFireRingLockstepRandom drives the ring and the naive min-scan in
// lockstep, the way the engine does: expired nodes are re-filed ahead,
// and other nodes' fire slots are shifted forward behind the ring's back
// (carrier freezes). Widths run from the 64-bucket minimum to the cap;
// the clamped variants draw slots up to four ring widths ahead.
func TestFireRingLockstepRandom(t *testing.T) {
	for _, w := range []int64{64, 128, 1 << 10, 1 << 13, maxRingSpan} {
		for _, clamped := range []bool{false, true} {
			reach := w // a fresh draw lands 1 .. reach slots ahead
			if clamped {
				reach = 4 * w
			}
			t.Run(fmt.Sprintf("w%d-clamped=%v", w, clamped), func(t *testing.T) {
				src := rng.New(uint64(w) ^ 0x5eed)
				const n, events = 40, 3000
				fire := make([]int64, n)
				for i := range fire {
					fire[i] = int64(src.Intn(int(reach)))
				}
				var ring fireRing
				ring.init(n, w)
				if ring.mask+1 != w {
					t.Fatalf("ring width %d, want %d", ring.mask+1, w)
				}
				ring.rebuild(fire)
				limit := int64(1) << 40
				for e := 0; e < events; e++ {
					wantSlot, wantNodes := naiveNextEvent(fire, limit)
					slot, got := ring.nextEvent(fire, limit, nil)
					if slot != wantSlot || !reflect.DeepEqual(got, wantNodes) {
						t.Fatalf("event %d: ring (%d, %v), naive (%d, %v)", e, slot, got, wantSlot, wantNodes)
					}
					for _, i := range got {
						// A tight draw now and then keeps several nodes
						// expiring together.
						d := 1 + int64(src.Intn(int(reach)))
						if src.Intn(4) == 0 {
							d = 1 + int64(src.Intn(3))
						}
						fire[i] = slot + d
						ring.file(fire[i], int32(i))
					}
					for k := 0; k < 3; k++ {
						i := src.Intn(n)
						fire[i] += int64(src.Intn(int(reach)))
					}
				}
			})
		}
	}
}

// TestFireRingEmptyReturnsLimit: with nothing filed — from the start, or
// once the last entry has expired without being re-filed — nextEvent
// returns limit with an empty set instead of scanning forever.
func TestFireRingEmptyReturnsLimit(t *testing.T) {
	var ring fireRing
	ring.init(0, 64)
	ring.rebuild(nil)
	if slot, got := ring.nextEvent(nil, 1000, nil); slot != 1000 || len(got) != 0 {
		t.Fatalf("empty ring: (%d, %v), want (1000, [])", slot, got)
	}

	fire := []int64{5}
	ring.init(1, 8)
	if ring.mask+1 != minRingSpan {
		t.Fatalf("ring width %d for an 8-slot span, want the %d minimum", ring.mask+1, minRingSpan)
	}
	ring.rebuild(fire)
	if slot, got := ring.nextEvent(fire, 1000, nil); slot != 5 || !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("first event (%d, %v), want (5, [0])", slot, got)
	}
	if slot, got := ring.nextEvent(fire, 1000, nil); slot != 1000 || len(got) != 0 {
		t.Fatalf("drained ring: (%d, %v), want (1000, [])", slot, got)
	}
}

// TestFireRingBitmapEdges pins the bitmap scan at its edges: buckets 63
// and 64 on either side of a word boundary, a jump from bucket 0 past
// the rest of its word, the wrap from bucket W-1 back to 0, and an entry
// whose bucket lies below the current one in the same word, which only
// a full wrap of the bitmap reaches.
func TestFireRingBitmapEdges(t *testing.T) {
	type event struct {
		slot  int64
		nodes []int
	}
	drain := func(ring *fireRing, fire []int64, refile func(slot int64, i int) int64, limit int64) []event {
		var got []event
		for {
			slot, nodes := ring.nextEvent(fire, limit, nil)
			if slot >= limit {
				return got
			}
			got = append(got, event{slot, nodes})
			for _, i := range nodes {
				if f := refile(slot, i); f >= 0 {
					fire[i] = f
					ring.file(f, int32(i))
				}
			}
		}
	}
	never := func(int64, int) int64 { return -1 }
	cases := []struct {
		name   string
		width  int64
		fire   []int64
		refile func(slot int64, i int) int64
		want   []event
	}{
		{"word-boundary-63-64", 128, []int64{64, 63}, never, []event{{63, []int{1}}, {64, []int{0}}}},
		{"skip-rest-of-word", 128, []int64{0, 64, 127}, never, []event{{0, []int{0}}, {64, []int{1}}, {127, []int{2}}}},
		{
			"wrap-w-1-to-0", 64, []int64{63},
			func(slot int64, _ int) int64 {
				if slot == 63 {
					return 64 // bucket 0 of the next lap
				}
				return -1
			},
			[]event{{63, []int{0}}, {64, []int{0}}},
		},
		{
			"lower-bucket-same-word", 64, []int64{60},
			func(slot int64, _ int) int64 {
				if slot == 60 {
					return 66 // bucket 2, below bucket 60 in the only word
				}
				return -1
			},
			[]event{{60, []int{0}}, {66, []int{0}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ring fireRing
			ring.init(len(tc.fire), tc.width)
			if ring.mask+1 != tc.width {
				t.Fatalf("ring width %d, want %d", ring.mask+1, tc.width)
			}
			ring.rebuild(tc.fire)
			if got := drain(&ring, tc.fire, tc.refile, 1000); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("events %v, want %v", got, tc.want)
			}
		})
	}
}
