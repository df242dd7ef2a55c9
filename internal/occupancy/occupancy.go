// Package occupancy is the bucket-occupancy bitmap behind the
// event-skipping engines' calendar queues (macsim's fast engine and
// multihop's fire ring). One bit per bucket marks the non-empty ones,
// so advancing a calendar's clock jumps straight to the next occupied
// bucket a 64-bucket word at a time instead of visiting every slot.
package occupancy

import "math/bits"

// Bitmap marks bucket b occupied with bit b&63 of word b>>6. It covers
// 64 buckets per word, so a calendar of W buckets needs W/64 words.
type Bitmap []uint64

// New returns an all-empty bitmap for buckets buckets, a multiple of 64.
func New(buckets int) Bitmap { return make(Bitmap, buckets/64) }

// Set marks bucket b occupied.
func (m Bitmap) Set(b int64) { m[b>>6] |= 1 << (b & 63) }

// Clear marks bucket b empty.
func (m Bitmap) Clear(b int64) { m[b>>6] &^= 1 << (b & 63) }

// Next returns the first occupied bucket at or cyclically after b0.
// The scan covers at most one wrap, so ok is false, rather than a hang,
// when every bucket is empty.
func (m Bitmap) Next(b0 int64) (b int64, ok bool) {
	w := int(b0 >> 6)
	word := m[w] &^ (1<<(b0&63) - 1)
	for k := 0; word == 0; k++ {
		if k == len(m) {
			return 0, false
		}
		if w++; w == len(m) {
			w = 0
		}
		word = m[w]
	}
	return int64(w<<6 + bits.TrailingZeros64(word)), true
}
