package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"selfishmac/internal/multihop"
	"selfishmac/internal/rng"
	"selfishmac/internal/topology"
)

// mobileInputs is the mobile-n10000 random-waypoint scenario of cmd/bench
// (n=10000 in a 10 km square, range 250 m, max speed 5 m/s, CW 26, 0.5 s
// of MAC time, mobility every 0.25 s) with its seeds derived from the
// workload seed.
func mobileInputs(seed uint64) (topology.Config, multihop.SimConfig) {
	const n = 10000
	topo := topology.Config{N: n, Width: 10000, Height: 10000, Range: 250, MaxSpeed: 5,
		Seed: rng.DeriveSeed(seed, "perfbench.mobile.topology", 0)}
	sim := multihop.DefaultSimConfig(5e5, rng.DeriveSeed(seed, "perfbench.mobile.sim", 0))
	sim.CW = make([]int, n)
	for i := range sim.CW {
		sim.CW[i] = 26
	}
	sim.MobilityEvery = 2.5e5
	return topo, sim
}

// mobileOp is one mobile-n10k op: build the network, then simulate it.
// It also returns the host time spent in Simulate.
func mobileOp(topo topology.Config, sim multihop.SimConfig, ot *opTimer) (*multihop.SimResult, time.Duration, error) {
	t0 := time.Now()
	nw, err := topology.New(topo)
	t1 := time.Now()
	ot.child("topology.new", "topology", t0, t1)
	if err != nil {
		return nil, 0, err
	}
	res, err := multihop.Simulate(nw, sim)
	t2 := time.Now()
	ot.child("multihop.simulate", "multihop", t1, t2)
	return res, t2.Sub(t1), err
}

// simDigest hashes every field of a simulation result bit for bit.
func simDigest(r *multihop.SimResult) digest {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(math.Float64bits(r.Time))
	put(uint64(r.Slots))
	put(math.Float64bits(r.HiddenFraction))
	for _, n := range r.Nodes {
		put(uint64(n.Attempts))
		put(uint64(n.Successes))
		put(uint64(n.Collisions))
		put(uint64(n.HiddenCollisions))
		put(math.Float64bits(n.PayoffRate))
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// events counts the simulated transmission attempts of a result.
func events(r *multihop.SimResult) int64 {
	var n int64
	for _, s := range r.Nodes {
		n += s.Attempts
	}
	return n
}

// mobileSetup is mobile-n10k's set-up: one cold op.
func mobileSetup(seed uint64, _ int) (func(), error) {
	topo, sim := mobileInputs(seed)
	_, _, err := mobileOp(topo, sim, nil)
	return nil, err
}

func runMobile(opts options) (*result, *runArtifacts, error) {
	topo, sim := mobileInputs(opts.seed)
	col := newCollector()
	var t tally
	var records []opRecord // every op's result digest; one input set, so k is 0
	rss := startRSSSampler()
	defer rss.halt()

	var tr *tracer
	if opts.traced {
		tr = newTracer()
	}
	var simHost time.Duration
	var evTotal, evPerOp int64
	var probes mobileProbes
	var probeErr error
	st, err := singleClientLoop(opts.duration(), tr, "mobile-n10k", &t, func(i int, ot *opTimer) (func(), error) {
		res, simDur, err := mobileOp(topo, sim, ot)
		return func() {
			evPerOp = events(res)
			if ot == nil {
				simHost += simDur
				evTotal += evPerOp
			} else {
				// Probe right after each traced op, so the static run
				// and the op it is compared with see the same host.
				probeErr = errors.Join(probeErr, probes.run(topo, sim))
			}
			records = append(records, opRecord{0, simDigest(res)})
		}, err
	})
	rssMB, rssErr := rss.peakMB()
	if err := errors.Join(err, probeErr, rssErr); err != nil {
		return nil, nil, err
	}

	// Oracle: the slot-by-slot reference engine on the same inputs.
	nw, err := topology.New(topo)
	if err != nil {
		return nil, nil, err
	}
	ref, err := multihop.SimulateReference(nw, sim)
	if err != nil {
		return nil, nil, fmt.Errorf("reference simulation: %w", err)
	}
	checkDigests(&t, records, map[int]digest{0: simDigest(ref)})

	arts := &runArtifacts{}
	if !opts.traced {
		col.setEndToEnd(opts.setupS, st, rssMB)
	} else {
		if simHost > 0 {
			col.set("events_per_s", float64(evTotal)/simHost.Seconds())
		}
		simMs := median(spanDurations(tr.spans, "multihop.simulate"))
		col.set("topology.new.ms", median(spanDurations(tr.spans, "topology.new")))
		col.set("multihop.simulate.ms", simMs)
		col.set("multihop.events", float64(evPerOp))
		if evPerOp > 0 {
			col.set("multihop.ns_per_event", simMs*1e6/float64(evPerOp))
		}
		probes.report(col, simMs)
		if err := col.setTraced(st, tr.spans); err != nil {
			return nil, nil, err
		}
		arts.spans = tr.spans
	}
	arts.withheld = col.withheld
	res, err := newResult(&t, col, opts.traced)
	return res, arts, err
}

// mobileProbes measures the topology layer and the static share of the
// simulation on fresh networks of the workload's shape: a cold adjacency
// build, one incremental mobility step at the workload's cadence, and the
// same simulation with mobility off. mobility.ms is what mobility adds
// to the simulated op.
type mobileProbes struct {
	adj, step, static []float64 // ms
	links             int
}

func (p *mobileProbes) run(topo topology.Config, sim multihop.SimConfig) error {
	nw, err := topology.New(topo)
	if err != nil {
		return err
	}
	t0 := time.Now()
	rows := nw.AdjacencyInto(nil)
	p.adj = append(p.adj, ms(time.Since(t0)))
	p.links = 0
	for _, r := range rows {
		p.links += len(r)
	}
	p.links /= 2

	view := nw.AdjacencyView()
	view.Rows()
	t0 = time.Now()
	if _, err := view.StepDelta(sim.MobilityEvery / 1e6); err != nil {
		return err
	}
	p.step = append(p.step, ms(time.Since(t0)))

	fresh, err := topology.New(topo)
	if err != nil {
		return err
	}
	static := sim
	static.MobilityEvery = 0
	t0 = time.Now()
	if _, err := multihop.Simulate(fresh, static); err != nil {
		return err
	}
	p.static = append(p.static, ms(time.Since(t0)))
	return nil
}

func (p *mobileProbes) report(c *collector, simMs float64) {
	c.set("topology.adjacency.ms", median(p.adj))
	c.set("topology.step_delta.ms", median(p.step))
	c.set("topology.links", float64(p.links))
	c.set("multihop.static.ms", median(p.static))
	c.set("multihop.mobility.ms", simMs-median(p.static))
}
