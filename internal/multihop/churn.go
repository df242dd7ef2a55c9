package multihop

import (
	"fmt"
	"math"

	"selfishmac/internal/rng"
)

// ChurnConfig models node churn — stations leaving and rejoining the
// network — during a multi-hop repeated-game run. A departed node is cut
// out of the topology (no links, no transmissions, no observations by or
// of it); on rejoin it resumes with its strategy state intact, exactly
// like a station coming back into radio range.
type ChurnConfig struct {
	// Seed drives the churn stream (derived via rng.DeriveSeed, so churn
	// draws never perturb the simulator's stream).
	Seed uint64
	// LeaveProb is the per-active-node, per-stage probability of leaving.
	LeaveProb float64
	// JoinProb is the per-departed-node, per-stage probability of
	// rejoining.
	JoinProb float64
	// MinActive is the floor on simultaneously active nodes; departures
	// that would go below it are suppressed. Zero defaults to 2.
	MinActive int
}

// Validate rejects unusable churn configurations.
func (c ChurnConfig) Validate() error {
	if c.LeaveProb < 0 || c.LeaveProb >= 1 || math.IsNaN(c.LeaveProb) {
		return fmt.Errorf("multihop: LeaveProb %g outside [0, 1)", c.LeaveProb)
	}
	if c.JoinProb < 0 || c.JoinProb > 1 || math.IsNaN(c.JoinProb) {
		return fmt.Errorf("multihop: JoinProb %g outside [0, 1]", c.JoinProb)
	}
	if c.MinActive < 0 {
		return fmt.Errorf("multihop: negative MinActive %d", c.MinActive)
	}
	return nil
}

// churnState tracks which nodes are present and evolves them stage by
// stage from a dedicated deterministic stream.
type churnState struct {
	cfg    ChurnConfig
	src    *rng.Source
	active []bool
	nUp    int
}

func newChurnState(cfg ChurnConfig, n int) *churnState {
	if cfg.MinActive == 0 {
		cfg.MinActive = 2
	}
	if cfg.MinActive > n {
		cfg.MinActive = n
	}
	st := &churnState{
		cfg:    cfg,
		src:    rng.New(rng.DeriveSeed(cfg.Seed, "multihop.churn", 0)),
		active: make([]bool, n),
		nUp:    n,
	}
	for i := range st.active {
		st.active[i] = true
	}
	return st
}

// step evolves membership one stage: active nodes leave with LeaveProb
// (never below MinActive), departed nodes rejoin with JoinProb. Draws are
// made in fixed node order so the trajectory is deterministic.
func (st *churnState) step() {
	for i := range st.active {
		if st.active[i] {
			if st.nUp > st.cfg.MinActive && st.src.Float64() < st.cfg.LeaveProb {
				st.active[i] = false
				st.nUp--
			}
		} else if st.src.Float64() < st.cfg.JoinProb {
			st.active[i] = true
			st.nUp++
		}
	}
}

// maskedTopology presents a base topology with departed nodes removed:
// they keep their index (profiles stay length-n) but have no links, so
// the spatial simulator leaves them idle. AdjacencyInto refills the base
// adjacency into a buffer the view owns and filters it into dst, so one
// maskedTopology serves every churn stage of an engine run without
// per-stage allocations in steady state. It is not safe for concurrent
// use.
type maskedTopology struct {
	base   Topology
	active []bool
	full   [][]int // base adjacency, refilled on every call
}

func (m *maskedTopology) N() int { return m.base.N() }

func (m *maskedTopology) AdjacencyInto(dst [][]int) [][]int {
	m.full = m.base.AdjacencyInto(m.full)
	dst = growSlice(dst, len(m.full))
	for i, row := range m.full {
		kept := dst[i][:0]
		if m.active[i] {
			for _, j := range row {
				if m.active[j] {
					kept = append(kept, j)
				}
			}
		}
		dst[i] = kept
	}
	return dst
}

func (m *maskedTopology) IsLink(i, j int) bool {
	return m.active[i] && m.active[j] && m.base.IsLink(i, j)
}

var _ Topology = (*maskedTopology)(nil)
