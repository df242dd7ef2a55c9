package occupancy

import (
	"math/rand"
	"testing"
)

// naiveNext is the oracle: walk the buckets one by one from b0.
func naiveNext(set map[int64]bool, buckets, b0 int64) (int64, bool) {
	for d := int64(0); d < buckets; d++ {
		if b := (b0 + d) % buckets; set[b] {
			return b, true
		}
	}
	return 0, false
}

func TestNextEdges(t *testing.T) {
	m := New(256)
	if _, ok := m.Next(100); ok {
		t.Fatal("empty bitmap reported an occupied bucket")
	}
	cases := []struct {
		set      []int64
		from     int64
		want     int64
		describe string
	}{
		{[]int64{63, 64}, 0, 63, "last bit of word 0"},
		{[]int64{63, 64}, 64, 64, "first bit of word 1"},
		{[]int64{5, 200}, 6, 200, "skips the rest of a word and empty words"},
		{[]int64{5}, 6, 5, "lower bit in the start word after a full wrap"},
		{[]int64{0}, 255, 0, "wrap from the last bucket to 0"},
		{[]int64{255}, 255, 255, "start bucket itself"},
	}
	for _, c := range cases {
		clear(m)
		for _, b := range c.set {
			m.Set(b)
		}
		if got, ok := m.Next(c.from); !ok || got != c.want {
			t.Errorf("%s: Next(%d) = %d, %v; want %d", c.describe, c.from, got, ok, c.want)
		}
	}
	clear(m)
	m.Set(70)
	m.Clear(70)
	if _, ok := m.Next(0); ok {
		t.Error("cleared bucket still reported occupied")
	}
}

func TestNextMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, buckets := range []int64{64, 128, 1024, 1 << 17} {
		m := New(int(buckets))
		set := map[int64]bool{}
		for step := 0; step < 2000; step++ {
			b := rng.Int63n(buckets)
			if set[b] {
				m.Clear(b)
				delete(set, b)
			} else if rng.Intn(3) > 0 || len(set) == 0 {
				m.Set(b)
				set[b] = true
			}
			from := rng.Int63n(buckets)
			got, ok := m.Next(from)
			want, wantOK := naiveNext(set, buckets, from)
			if got != want || ok != wantOK {
				t.Fatalf("W=%d step %d: Next(%d) = %d, %v; want %d, %v", buckets, step, from, got, ok, want, wantOK)
			}
		}
	}
}
