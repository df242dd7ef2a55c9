package multihop

import (
	"math/bits"

	"selfishmac/internal/occupancy"
)

// firering.go is the fire-slot calendar: a bucket ring of intrusive
// linked lists.
//
// The engine's fire slots live inside a bounded horizon: a node's next
// fire slot never lies more than maxDur + maxCW - 1 slots past the
// current event slot, where maxDur = max(Ts, Tc) in slots and maxCW is
// the largest post-doubling window any node can draw (cw << MaxStage).
// The ring has W power-of-two buckets, W >= that span up to the
// maxRingSpan cap; bucket b holds the nodes filed for slots ≡ b (mod W)
// as an intrusive singly-linked list (head per bucket, one next pointer
// per node — every node has exactly one live entry, so no allocation
// ever). An occupancy bitmap, one bit per bucket, marks the non-empty
// buckets, so advancing the clock jumps straight to the next occupied
// bucket a 64-bucket word at a time instead of visiting every slot.
// Filing is O(1). A slot a full ring or more ahead (only possible past
// the cap) is filed clamped to cur + W - 1, so every entry is less than
// W ahead and the first visit to its bucket happens exactly at its filed
// slot — never early.
//
// Carrier holds move fire[] forward without touching the calendar. A
// visited entry whose filed slot no longer equals fire[node] — stale
// from a freeze shift, or clamped — is re-filed at the node's true slot
// (clamped again if still a ring or more ahead), an O(1) list prepend.
// Because filed slots never exceed true slots, every entry reaches its
// true slot's bucket before the scan does, which makes the calendar
// exact and the expiry order ascending in slot. Stale repairs dominate
// calendar traffic at large n (every transmission shifts every
// neighbor), so per-op cost at n=10000 is bounded by the occupied
// buckets visited plus repairs, each a pointer hop, plus one bitmap word
// per 64 empty buckets skipped.
//
// Determinism: a bucket's list order is filing order, not node order, so
// the collected expired set is insertion-sorted ascending before it is
// returned — the order the reference loop's ascending node scan acts in.
type fireRing struct {
	head []int32          // bucket -> first node filed there, -1 when empty
	next []int32          // node -> next node in its bucket, -1 at list end
	occ  occupancy.Bitmap // non-empty buckets
	mask int64            // W - 1
	cur  int64            // next slot to scan; all live entries are at slots >= cur
}

// maxRingSpan caps the ring's bucket count (1<<17 buckets = 512 KiB of
// heads). Configurations whose fire-slot horizon exceeds it — extreme
// CW << MaxStage products — file far-future slots clamped. minRingSpan
// fills one bitmap word.
const (
	minRingSpan = 64
	maxRingSpan = 1 << 17
)

func nextPow2(v int64) int64 {
	if v < 1 {
		v = 1
	}
	return int64(1) << bits.Len64(uint64(v-1))
}

// init sizes the ring for n nodes and a fire-slot horizon of span slots,
// reusing the backing arrays when they are already large enough.
func (r *fireRing) init(n int, span int64) {
	w := nextPow2(min(max(span, minRingSpan), maxRingSpan))
	r.head = growSlice(r.head, int(w))
	r.occ = growSlice(r.occ, int(w/64))
	r.next = growSlice(r.next, n)
	r.mask = w - 1
}

// rebuild resets the clock to slot 0 and files one entry per node at
// fire[i], dropping any previous contents. It allocates nothing.
func (r *fireRing) rebuild(fire []int64) {
	for i := range r.head {
		r.head[i] = -1
	}
	clear(r.occ)
	r.cur = 0
	for i, f := range fire {
		r.file(f, int32(i))
	}
}

// file prepends node i to the bucket for slot, clamped to cur + W - 1
// when it lies a full ring or more ahead. slot must not be behind cur.
func (r *fireRing) file(slot int64, i int32) {
	if slot-r.cur > r.mask {
		slot = r.cur + r.mask
	}
	b := slot & r.mask
	r.next[i] = r.head[b]
	r.head[b] = i
	r.occ.Set(b)
}

// nextEvent advances the clock to the next slot (before limit) at which
// at least one node's true fire slot expires, appends those nodes to
// expired in ascending node order, and returns the slot and the extended
// slice. Entries visited with a stale or clamped filed slot are re-filed
// at their true fire slot, clamped to t + W - 1. When no event lies
// before limit it returns (limit, expired) unchanged; entries at or past
// limit stay filed.
func (r *fireRing) nextEvent(fire []int64, limit int64, expired []int) (int64, []int) {
	head, next, occ, mask := r.head, r.next, r.occ, r.mask
	t := r.cur
	for t < limit {
		// Every filed slot is in t .. t+W-1, so the next occupied
		// bucket's cyclic distance from t gives its slot.
		b0 := t & mask
		b, ok := occ.Next(b0)
		if t += (b - b0) & mask; !ok || t >= limit {
			break
		}
		j := head[b]
		head[b] = -1
		occ.Clear(b)
		n0 := len(expired)
		for j >= 0 {
			nj := next[j]
			if fire[j] == t {
				expired = append(expired, int(j))
			} else {
				// Stale or clamped: the true slot is still ahead
				// (shifts only move fire slots forward); re-file
				// there, or as far as the ring reaches. Never this
				// bucket again: f - t is in 1 .. W-1.
				f := fire[j]
				if f-t > mask {
					f = t + mask
				}
				fb := f & mask
				next[j] = head[fb]
				head[fb] = j
				occ.Set(fb)
			}
			j = nj
		}
		if len(expired) > n0 {
			sortExpired(expired[n0:])
			r.cur = t
			return t, expired
		}
		t++
	}
	r.cur = limit
	return limit, expired
}

// sortExpired insertion-sorts a freshly collected expired run ascending.
// Expired sets are a handful of nodes; filing order is close to reversed
// arrival, so the runs are tiny and nearly sorted.
func sortExpired(b []int) {
	for i := 1; i < len(b); i++ {
		v := b[i]
		j := i - 1
		for j >= 0 && b[j] > v {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = v
	}
}
