package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"selfishmac/internal/bianchi"
	"selfishmac/internal/experiments"
	"selfishmac/internal/rng"
)

// paperSeeds is how many experiment seeds one run cycles through. A
// seed places the multihop nodes, and M1 alone costs up to a third more
// on one placement than on another, so the op median of a run over one
// or three seeds follows the seeds it drew. Over six it follows the
// code; each seed costs one oracle pass.
const paperSeeds = 6

// paperWorkers is the worker count of a timed paper-all op. One worker
// keeps the op on one CPU: a fan-out over every CPU of a small shared
// host waits on whichever CPU a neighbour holds, so it times the
// scheduler as much as the experiments (a busy loop beside the op slowed
// it by 29% at Workers = 2 on a 2-CPU host, 14% at Workers = 1). The
// oracle passes run at Workers = nproc, so the determinism contract
// across worker counts is still checked.
const paperWorkers = 1

// paperOp is one paper-all op: every registered experiment in registry
// order at s, after a bianchi cache reset, so each op costs what a fresh
// cmd/experiments process with those settings does.
func paperOp(ctx context.Context, s experiments.Settings, ot *opTimer) ([]*experiments.Report, error) {
	t0 := time.Now()
	bianchi.ResetCache()
	ot.child("bianchi.reset", "bianchi", t0, time.Now())
	reps := make([]*experiments.Report, 0, len(experiments.All()))
	for _, r := range experiments.All() {
		start := time.Now()
		rep, err := r.Run(ctx, s)
		ot.child("experiments."+r.ID, "experiments", start, time.Now())
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", r.ID, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// reportsDigest hashes every byte cmd/experiments would write for the
// reports: IDs, titles, rendered text, metrics and artifacts.
func reportsDigest(reps []*experiments.Report) digest {
	h := sha256.New()
	for _, r := range reps {
		fmt.Fprintf(h, "%s\x00%s\x00%d:%s\x00", r.ID, r.Title, len(r.Text), r.Text)
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%x\x00", k, r.Metrics[k])
		}
		for _, a := range r.Artifacts {
			fmt.Fprintf(h, "%s\x00%d:%s\x00", a.Name, len(a.Content), a.Content)
		}
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// paperSettings returns the settings of the k-th seed of a run:
// DefaultSettings with a fixed replication count. Adaptive stopping
// runs between ReplicateMin and ReplicateMax replications per point
// depending on the seed (A9 took 450 to 800 ms on one worker), so every
// point runs ReplicateMin, the replications each point runs by default
// before it may stop.
func paperSettings(seed uint64, k, workers int) experiments.Settings {
	s := experiments.DefaultSettings()
	s.Seed = rng.DeriveSeed(seed, "perfbench.paper", k)
	s.Workers = workers
	s.ReplicateMax, s.ReplicateRelCI = s.ReplicateMin, 0
	return s
}

// paperSetup is paper-all's set-up: one cold op, on the rep-th seed.
func paperSetup(seed uint64, rep int) (func(), error) {
	_, err := paperOp(context.Background(), paperSettings(seed, rep%paperSeeds, paperWorkers), nil)
	return nil, err
}

func runPaper(opts options) (*result, *runArtifacts, error) {
	ctx := context.Background()
	col := newCollector()
	var t tally
	var records []opRecord
	rss := startRSSSampler()
	defer rss.halt()

	var tr *tracer
	if opts.traced {
		tr = newTracer()
	}
	var hits, misses []float64
	st, err := singleClientLoop(opts.duration(), tr, "paper-all", &t, func(i int, ot *opTimer) (func(), error) {
		k := i % paperSeeds
		reps, err := paperOp(ctx, paperSettings(opts.seed, k, paperWorkers), ot)
		return func() {
			// The op's cache reset zeroed the counters, so they now hold
			// exactly this op's hits and misses.
			h, m := bianchi.CacheStats()
			hits, misses = append(hits, float64(h)), append(misses, float64(m))
			records = append(records, opRecord{k, reportsDigest(reps)})
		}, err
	})
	rssMB, rssErr := rss.peakMB()
	if err := errors.Join(err, rssErr); err != nil {
		return nil, nil, err
	}

	// Oracle: a pass per seed on every CPU must reproduce every op's
	// artifacts byte for byte (the determinism contract across worker
	// counts).
	ref := make(map[int]digest)
	for k := 0; k < paperSeeds; k++ {
		reps, err := paperOp(ctx, paperSettings(opts.seed, k, runtime.NumCPU()), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("parallel oracle pass: %w", err)
		}
		ref[k] = reportsDigest(reps)
	}
	checkDigests(&t, records, ref)

	arts := &runArtifacts{}
	if !opts.traced {
		col.setEndToEnd(opts.setupS, st, rssMB)
	} else {
		for _, r := range experiments.All() {
			col.set("experiments."+r.ID+".ms", median(spanDurations(tr.spans, "experiments."+r.ID)))
		}
		h, m := median(hits), median(misses)
		col.set("bianchi.cache_hits", h)
		col.set("bianchi.cache_misses", m)
		if h+m > 0 {
			col.set("bianchi.hit_ratio", h/(h+m))
		}
		if err := col.setTraced(st, tr.spans); err != nil {
			return nil, nil, err
		}
		arts.spans = tr.spans
	}
	arts.withheld = col.withheld
	res, err := newResult(&t, col, opts.traced)
	return res, arts, err
}
