package topology

// adjacency.go is the cached adjacency view: a reusable snapshot of the
// network's neighbor lists that is refilled in place (AdjacencyInto)
// whenever the network's positions change, and left alone otherwise.
//
// Every row is in exactly the ascending-index order
// BruteForceAdjacencyLists produces. Staleness is tracked through the
// network's position version: if the network moved outside the view's
// control (a plain Step, SetPositions, or another view stepping the same
// network), the next Rows call refills. On a static network the version
// never changes, so every consult after the first is free.
type Adjacency struct {
	nw   *Network
	gen  uint64  // network position version at the last refill
	rows [][]int // nil until the first refill
}

// AdjacencyView returns a fresh adjacency view of the network. Each
// caller owns its view: views never share row buffers, so concurrent
// *readers* of one static network may each hold one safely. Stepping a
// view mutates the underlying network and needs the same exclusive
// access Network.Step does.
func (nw *Network) AdjacencyView() *Adjacency {
	return &Adjacency{nw: nw}
}

// Rows returns the current neighbor lists, refilling first if the
// network moved since the last refill. The structure is view-owned and
// reused; it is valid until the next StepDelta or network mutation.
// Contents and ordering are identical to Network.AdjacencyLists.
func (v *Adjacency) Rows() [][]int {
	if v.rows == nil || v.gen != v.nw.posGen {
		v.rows = v.nw.AdjacencyInto(v.rows)
		v.gen = v.nw.posGen
	}
	return v.rows
}

// StepDelta advances the bound network's random-waypoint mobility by dt
// seconds — exactly Network.Step — and refills the rows if any node
// moved. It reports whether any node moved; on a static network (or
// when every node is pausing) the refill is skipped.
func (v *Adjacency) StepDelta(dt float64) (bool, error) {
	gen := v.nw.posGen
	if err := v.nw.Step(dt); err != nil {
		return false, err
	}
	v.Rows()
	return v.nw.posGen != gen, nil
}
