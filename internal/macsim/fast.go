package macsim

import (
	"selfishmac/internal/backoff"
	"selfishmac/internal/occupancy"
	"selfishmac/internal/rng"
)

// fast.go is the event-skipping engine behind Run. It replaces the
// reference loop's per-event O(n) work — min-scan over counters, counter
// decrement for every node, transmitter collection scan — with a global
// virtual-slot clock and a bucketed calendar queue of per-node absolute
// expiry slots, making each event O(k) for k transmitters plus a cheap
// occupancy-bitmap scan.
//
// The key observation making expiries absolute is that in the reference
// loop a busy period costs every bystander exactly one counter decrement
// (a virtual slot), while the clock also advances by one virtual slot —
// so a non-transmitter's absolute expiry slot never changes across a busy
// event. Only transmitters redraw: their new expiry is the event slot + 1
// (the busy virtual slot) + the fresh counter.
//
// Determinism contract: the engine consumes the PRNG in exactly the
// reference order (initial draws in node order; per event, the single
// successful transmitter or all colliding transmitters in ascending node
// order), accumulates elapsed time in the same order with the same
// values, and computes identical statistics. The differential tests pin
// byte-identical Results.
//
// The hot loop performs no steady-state allocations: the calendar is an
// intrusive singly-linked list over engine-owned arrays, the PRNG is
// embedded by value, and the transmitter scratch slice is reused. The
// only allocation after setup is a calendar doubling the first time a
// backed-off draw outreaches the current capacity — capacity is then
// retained across reset and reconfigure, so repeated runs settle at
// zero allocations.

// fastWindowCap bounds the calendar size: the largest supported
// contention window (cw << maxStage). Configurations beyond it — far
// outside any 802.11 parameterisation — fall back to the reference loop.
const fastWindowCap = 1 << 20

// fastNodeCap bounds the population: calendar links are int16 node ids
// (halving the dominant per-bucket cost), so a single collision domain
// beyond 32767 nodes — far outside the paper's ≤100 — falls back to the
// reference loop rather than widening every bucket.
const fastNodeCap = 1<<15 - 1

type fastEngine struct {
	cfg *Config
	n   int

	// Per-node state.
	cw     []int
	stage  []int
	expiry []int64   // absolute virtual slot at which the node transmits
	ts     []float64 // success hold per node (PerNodeTs or Timing.Ts)
	tc     []float64 // collision-hold contribution (PerNodeTc or Timing.Tc)

	// Bucketed calendar queue over expiry slots. bucket(b) is an
	// intrusive list head[b] -> next[...] of int16 node ids (-1 ends a
	// list); occ is a bitmap of non-empty buckets. The calendar is
	// compact and lazily grown: it
	// starts sized to the stage-0 windows (the live expiry horizon of a
	// fresh run) and doubles — re-filing every queued node — only when a
	// backed-off draw actually outreaches it, instead of paying the
	// worst-case cw << MaxStage span up front. Capacity never shrinks
	// while the engine lives, so every filed expiry lies within one
	// calendar wrap of the current slot and every non-empty bucket holds
	// nodes of exactly one expiry value (the invariant the bucket scan
	// and the bucket-drain rely on).
	mask int64
	head []int16
	next []int16
	occ  occupancy.Bitmap

	src          rng.Source
	transmitters []int
	res          Result
}

// newFastEngine builds and seeds an engine for cfg (which must already be
// validated). It reports ok=false when the configuration needs the
// reference fallback.
func newFastEngine(cfg *Config) (*fastEngine, bool) {
	n := len(cfg.CW)
	if n > fastNodeCap {
		return nil, false
	}
	maxCW0 := 0
	for _, w := range cfg.CW {
		if w > fastWindowCap>>uint(cfg.MaxStage) {
			return nil, false
		}
		if w > maxCW0 {
			maxCW0 = w
		}
	}
	// Size the calendar to the live expiry horizon of a fresh run — the
	// stage-0 windows — not the worst-case cw << MaxStage span. Draws are
	// in [0, w-1], so any power of two >= maxCW0 covers them; grow()
	// doubles on demand when collisions push a window beyond this.
	b := 64
	for int64(b) < int64(maxCW0) {
		b <<= 1
	}
	e := &fastEngine{
		cfg:          cfg,
		n:            n,
		cw:           make([]int, n),
		stage:        make([]int, n),
		expiry:       make([]int64, n),
		ts:           make([]float64, n),
		tc:           make([]float64, n),
		mask:         int64(b) - 1,
		head:         make([]int16, b),
		next:         make([]int16, n),
		occ:          occupancy.New(b),
		transmitters: make([]int, 0, n),
	}
	copy(e.cw, cfg.CW)
	// Satellite fix: hoist the PerNodeTs/PerNodeTc nil-checks out of the
	// hot loop — tsOf/tcOf closures become two precomputed slices.
	for i := 0; i < n; i++ {
		e.ts[i] = cfg.Timing.Ts
		e.tc[i] = cfg.Timing.Tc
	}
	if cfg.PerNodeTs != nil {
		copy(e.ts, cfg.PerNodeTs)
	}
	if cfg.PerNodeTc != nil {
		copy(e.tc, cfg.PerNodeTc)
	}
	e.res.Nodes = make([]NodeStats, n)
	e.reset()
	return e, true
}

// reconfigure re-derives the per-config state (window copies, per-node
// hold times) after the owning Engine mutated *e.cfg in place, then
// resets. It reports ok=false when the new configuration does not fit the
// allocated buffers — node count changed — or needs the reference
// fallback; the caller rebuilds in that case. Larger windows are not a
// rebuild reason anymore: the calendar grows on demand, so on success
// the steady-state (same shape) path allocates nothing.
func (e *fastEngine) reconfigure() bool {
	cfg := e.cfg
	if len(cfg.CW) != e.n {
		return false
	}
	for _, w := range cfg.CW {
		if w > fastWindowCap>>uint(cfg.MaxStage) {
			return false
		}
	}
	copy(e.cw, cfg.CW)
	for i := 0; i < e.n; i++ {
		e.ts[i] = cfg.Timing.Ts
		e.tc[i] = cfg.Timing.Tc
	}
	if cfg.PerNodeTs != nil {
		copy(e.ts, cfg.PerNodeTs)
	}
	if cfg.PerNodeTc != nil {
		copy(e.tc, cfg.PerNodeTc)
	}
	e.reset()
	return true
}

// reset re-seeds the PRNG and restores the initial simulator state. It
// allocates nothing, so (reset + run) pairs can be measured for hot-loop
// allocations and reused across benchmark iterations.
func (e *fastEngine) reset() {
	e.src.Reseed(e.cfg.Seed)
	for i := range e.head {
		e.head[i] = -1
	}
	clear(e.occ)
	e.res = Result{Nodes: e.res.Nodes}
	for i := range e.res.Nodes {
		e.res.Nodes[i] = NodeStats{}
	}
	// Initial draws in node order, exactly like the reference loop.
	for i := 0; i < e.n; i++ {
		e.stage[i] = 0
		e.enqueue(i, 0)
	}
}

// enqueue draws a fresh backoff for node i at virtual slot cur and files
// it in the calendar, growing it first when the draw outreaches the
// current capacity.
func (e *fastEngine) enqueue(i int, cur int64) {
	c := backoff.Draw(&e.src, e.cw[i], e.stage[i], e.cfg.MaxStage)
	if int64(c) >= int64(len(e.head)) {
		e.grow(int64(c))
	}
	exp := cur + int64(c)
	e.expiry[i] = exp
	b := exp & e.mask
	e.next[i] = e.head[b]
	e.head[b] = int16(i)
	e.occ.Set(b)
}

// grow doubles the calendar until one wrap covers a draw of span slots,
// then re-files every queued node into the new buckets. Re-filing walks
// the old bucket lists — not expiry[] — because mid-event transmitters
// have stale expiries and are not queued; they re-enqueue themselves
// right after. Filing order within a bucket is irrelevant: the drain
// sorts transmitters before acting. Growth is rare (once per doubling,
// never undone), so the rebuild cost amortizes to nothing.
func (e *fastEngine) grow(span int64) {
	b := int64(len(e.head))
	for b <= span {
		b <<= 1
	}
	head := make([]int16, b)
	for i := range head {
		head[i] = -1
	}
	occ := occupancy.New(int(b))
	mask := b - 1
	for _, h := range e.head {
		for i := h; i >= 0; {
			ni := e.next[i]
			nb := e.expiry[i] & mask
			e.next[i] = head[nb]
			head[nb] = int16(i)
			occ.Set(nb)
			i = ni
		}
	}
	e.head, e.occ, e.mask = head, occ, mask
}

// run executes the simulation to completion and finalises the result.
func (e *fastEngine) run() *Result {
	cfg := e.cfg
	res := &e.res
	var elapsed float64
	var cur int64 // current virtual slot

	for elapsed < cfg.Duration {
		// The calendar spans more than the largest window and is never
		// empty, so the cyclically nearest occupied bucket holds the
		// minimum expiry.
		b, _ := e.occ.Next(cur & e.mask)
		emin := e.expiry[e.head[b]] // bucket holds one expiry value only
		if minC := emin - cur; minC > 0 {
			elapsed += float64(minC) * cfg.Timing.Slot
			res.Slots += minC
			res.IdleSlots += minC
		}
		// Drain the bucket: it contains exactly the transmitter set.
		tx := e.transmitters[:0]
		for i := e.head[b]; i >= 0; i = e.next[i] {
			tx = append(tx, int(i))
		}
		e.head[b] = -1
		e.occ.Clear(b)
		sortAscending(tx) // draw order is ascending node order
		e.transmitters = tx

		// emin == res.Slots here (idle advance above restores the
		// invariant), so both engines report identical event slots.
		if cfg.Observer != nil {
			cfg.Observer.OnEvent(emin, tx)
		}
		res.Slots++
		cur = emin + 1
		if len(tx) == 1 {
			i := tx[0]
			res.SuccessEvents++
			res.Nodes[i].Attempts++
			res.Nodes[i].Successes++
			elapsed += e.ts[i]
			e.stage[i] = 0
			e.enqueue(i, cur)
		} else {
			res.CollisionEvents++
			d := e.tc[tx[0]] // longest colliding frame holds the channel
			for _, i := range tx[1:] {
				if e.tc[i] > d {
					d = e.tc[i]
				}
			}
			elapsed += d
			for _, i := range tx {
				res.Nodes[i].Attempts++
				res.Nodes[i].Collisions++
				if e.stage[i] < cfg.MaxStage {
					e.stage[i]++
				}
				e.enqueue(i, cur)
			}
		}
	}

	res.Time = elapsed
	res.Throughput = 0
	for i := range res.Nodes {
		st := &res.Nodes[i]
		st.PayoffRate = (float64(st.Successes)*cfg.Gain - float64(st.Attempts)*cfg.Cost) / elapsed
		st.Throughput = float64(st.Successes) * cfg.Timing.Payload / elapsed
		if res.Slots > 0 {
			st.MeasuredTau = float64(st.Attempts) / float64(res.Slots)
		}
		if st.Attempts > 0 {
			st.MeasuredP = float64(st.Collisions) / float64(st.Attempts)
		}
		res.Throughput += st.Throughput
	}
	return res
}

// sortAscending insertion-sorts the (typically 1–3 element) transmitter
// set without allocating.
func sortAscending(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
