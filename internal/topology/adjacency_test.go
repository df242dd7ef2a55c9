package topology

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// adjacency_test.go pins the adjacency view's contract: rows refreshed
// by StepDelta are identical — contents and ordering — to the
// brute-force reference recomputed from scratch after every mobility
// step, a static network is never refilled, and the steady-state step
// allocates nothing.

// twinNetworks builds two identical networks from one config; stepping
// them in lockstep keeps their PRNG trajectories — and so their
// positions — equal, which is what lets the view on one be checked
// against brute force on the other.
func twinNetworks(t *testing.T, cfg Config) (*Network, *Network) {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// normRows canonicalises an adjacency for comparison: a row emptied by
// a refill is empty-but-non-nil in the view, while brute force keeps
// nil — the contract is per-row contents and order, not nil-ness.
func normRows(rows [][]int) [][]int {
	out := make([][]int, len(rows))
	for i, r := range rows {
		if len(r) > 0 {
			out[i] = r
		}
	}
	return out
}

// TestDifferentialAdjacencyViewQuick drives randomized mobility through
// the view and checks every step against brute force, under both paused
// and continuous random waypoint. The generated configs cover
// cell-boundary crossings (speeds up to several cells per step),
// zero-speed legs (MinSpeed 0 draws redrawn by the leg logic), pause
// phases, and single-cell grids (range wider than the area).
func TestDifferentialAdjacencyViewQuick(t *testing.T) {
	check := func(seed uint64, nRaw, rangeRaw, speedRaw, dtRaw uint8, paused bool) bool {
		n := 2 + int(nRaw)%40
		rangeM := 40 + float64(rangeRaw)*1.5 // up to > area: one-cell grid
		maxSpeed := float64(speedRaw % 80)   // up to ~2 cells per 1s step
		dt := 0.25 + float64(dtRaw%16)/4
		cfg := Config{
			N: n, Width: 300, Height: 200, Range: rangeM,
			MinSpeed: 0, MaxSpeed: maxSpeed, Seed: seed,
		}
		if paused {
			cfg.Pause = 0.5
		}
		nv, nb := twinNetworks(t, cfg)
		view := nv.AdjacencyView()
		if !reflect.DeepEqual(normRows(view.Rows()), normRows(nb.BruteForceAdjacencyLists())) {
			t.Log("initial rows diverged from brute force")
			return false
		}
		for step := 0; step < 12; step++ {
			posBefore := nb.Positions()
			moved, err := view.StepDelta(dt)
			if err != nil {
				t.Log(err)
				return false
			}
			if err := nb.Step(dt); err != nil {
				t.Log(err)
				return false
			}
			if !reflect.DeepEqual(normRows(view.Rows()), normRows(nb.BruteForceAdjacencyLists())) {
				t.Logf("step %d: refreshed rows diverged from brute force", step)
				return false
			}
			if want := !reflect.DeepEqual(nb.Positions(), posBefore); moved != want {
				t.Logf("step %d: moved = %v, want %v", step, moved, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialAdjacencyViewResync pins staleness handling: mutations
// outside the view's control — plain Steps, SetPositions, another view
// stepping the same network — must be picked up by the next Rows or
// StepDelta via the position version, and interleaving must keep the
// rows byte-identical to brute force.
func TestDifferentialAdjacencyViewResync(t *testing.T) {
	cfg := Config{N: 30, Width: 400, Height: 400, Range: 150, MaxSpeed: 20, Seed: 77}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view := nw.AdjacencyView()
	assertMatch := func(what string) {
		t.Helper()
		if !reflect.DeepEqual(normRows(view.Rows()), normRows(nw.BruteForceAdjacencyLists())) {
			t.Fatalf("after %s: view diverged from brute force", what)
		}
	}
	assertMatch("build")

	// Plain Step behind the view's back.
	if err := nw.Step(1.5); err != nil {
		t.Fatal(err)
	}
	assertMatch("external Step")

	// SetPositions teleport.
	pos := append([]Point(nil), nw.Positions()...)
	for i := range pos {
		pos[i] = Point{X: float64((i * 37) % 400), Y: float64((i * 91) % 400)}
	}
	if err := nw.SetPositions(pos); err != nil {
		t.Fatal(err)
	}
	assertMatch("SetPositions")

	// A second view stepping the shared network stales the first.
	other := nw.AdjacencyView()
	if _, err := other.StepDelta(2); err != nil {
		t.Fatal(err)
	}
	assertMatch("sibling view StepDelta")

	// And a StepDelta on a stale view must resync too.
	if err := nw.Step(1); err != nil {
		t.Fatal(err)
	}
	if _, err := view.StepDelta(0.5); err != nil {
		t.Fatal(err)
	}
	assertMatch("StepDelta after external Step")
}

// TestDifferentialAdjacencyViewStatic pins the static fast path: with
// MaxSpeed 0 the position version never changes, StepDelta reports no
// movement and skips the refill, and the mobility PRNG is untouched —
// matching Network.Step's behavior for static networks exactly.
func TestDifferentialAdjacencyViewStatic(t *testing.T) {
	cfg := Config{N: 50, Width: 500, Height: 500, Range: 180, MaxSpeed: 0, Seed: 5}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view := nw.AdjacencyView()
	view.Rows()
	gen0 := view.gen
	for i := 0; i < 5; i++ {
		moved, err := view.StepDelta(1)
		if err != nil {
			t.Fatal(err)
		}
		if moved {
			t.Fatal("static network reported movement")
		}
	}
	if nw.posGen != gen0 || view.gen != gen0 {
		t.Fatal("static steps bumped the position version")
	}
	// The twin network's PRNG agrees after the same (draw-free) steps.
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := twin.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(nw.Positions(), twin.Positions()) {
		t.Fatal("static positions diverged from plain-Step twin")
	}
}

// TestAdjacencyViewStepAllocsSteadyState pins the perf contract the view
// exists for: once row capacities have reached their high-water mark,
// StepDelta + Rows run allocation-free, mobile or static.
func TestAdjacencyViewStepAllocsSteadyState(t *testing.T) {
	cfg := Config{N: 200, Width: 1000, Height: 1000, Range: 250, MaxSpeed: 10, Seed: 9}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view := nw.AdjacencyView()
	for i := 0; i < 300; i++ { // reach the row-capacity high-water mark
		if _, err := view.StepDelta(1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := view.StepDelta(1); err != nil {
			t.Fatal(err)
		}
		view.Rows()
	})
	if allocs > 0 {
		t.Fatalf("steady-state StepDelta allocated %.2f objects per step, want 0", allocs)
	}

	static, err := New(Config{N: 200, Width: 1000, Height: 1000, Range: 250, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sview := static.AdjacencyView()
	sview.Rows()
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := sview.StepDelta(1); err != nil {
			t.Fatal(err)
		}
		sview.Rows()
	})
	if allocs > 0 {
		t.Fatalf("static StepDelta allocated %.2f objects per step, want 0", allocs)
	}
}

// TestAdjacencyViewRejectsNegativeStep mirrors Network.Step's contract.
func TestAdjacencyViewRejectsNegativeStep(t *testing.T) {
	nw, err := New(Config{N: 3, Width: 100, Height: 100, Range: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AdjacencyView().StepDelta(-1); err == nil {
		t.Fatal("negative dt accepted")
	}
	if _, err := nw.AdjacencyView().StepDelta(math.Inf(-1)); err == nil {
		t.Fatal("negative-infinite dt accepted")
	}
}
