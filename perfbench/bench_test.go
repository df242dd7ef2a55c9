package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"selfishmac/internal/experiments"
	"selfishmac/internal/multihop"
	"selfishmac/internal/service"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // descending, so percentile must sort
	}
	return s
}

func TestPercentileWithheldBelowTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // 10 samples beyond rank 90
		{99, 0.90, 0, false},  // rank 90, only 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	col := newCollector()
	col.tail("op_p99_ms", seq(500), 0.99)
	if _, set := col.values["op_p99_ms"]; set || len(col.withheld) != 1 {
		t.Fatalf("p99 of 500 samples: values %v, withheld %v; want withheld", col.values, col.withheld)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestWindowPeakIsTheMedianWindowsPeak(t *testing.T) {
	sec := time.Second
	samples := []rssSample{
		{0, 10}, {sec / 2, 30}, // window 0: peak 30
		{sec, 20}, {3 * sec / 2, 90}, // window 1: peak 90, a one-off
		{2 * sec, 40}, // window 2: peak 40
		{3 * sec, 99}, // partial window 3: left out
	}
	if got := windowPeak(samples, sec); got != 40 {
		t.Errorf("window peak %d, want the median window's 40", got)
	}
	if got := windowPeak(samples[:2], sec); got != 30 {
		t.Errorf("no whole window: %d, want the partial window's peak 30", got)
	}
}

func TestFailFracCountsRejectionsAndMismatches(t *testing.T) {
	d1, d2 := digest{1}, digest{2}
	spec := jobSpec{kind: "replicate", key: "replicate-n50/0"}
	recs := []jobRecord{
		{spec: spec, outcome: outcomeOK, result: d1},
		{spec: spec, outcome: outcomeOK, result: d1},
		{spec: spec, outcome: outcomeOK, result: d2}, // same params, other bytes
		{spec: spec, outcome: outcomeRejected},       // 429
		{spec: spec, outcome: outcomeNotDone},
		{spec: jobSpec{key: "detect/0"}, outcome: outcomeOK, result: d2},
		{spec: spec, outcome: outcomeError},
		{spec: spec, outcome: outcomeOK, result: d1},
	}
	var tl tally
	checkResults(&tl, recs)
	if tl.attempted() != 8 || tl.failed() != 4 || tl.failFrac() != 0.5 {
		t.Fatalf("attempted %d failed %d frac %g; want 8, 4, 0.5", tl.attempted(), tl.failed(), tl.failFrac())
	}
	if tl[outcomeRejected] != 1 || tl[outcomeMismatch] != 1 || tl[outcomeNotDone] != 1 || tl[outcomeError] != 1 {
		t.Fatalf("outcome counts %v", tl)
	}
	res, err := newResult(&tl, newCollector(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 4 || res.Metrics["fail_frac"].Value != 0.5 {
		t.Fatalf("result %+v", res)
	}
}

func TestSelfTimesFromSpanTree(t *testing.T) {
	// root [0,100] bench
	//   a [10,40] experiments
	//     b [20,30] bianchi
	//   c [50,90] multihop
	//     d [80,120] topology (overhangs c; only [80,90] counts against c)
	spans := []span{
		{Op: 0, ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100},
		{Op: 0, ID: 1, Parent: 0, Layer: "experiments", Start: 10, End: 40},
		{Op: 0, ID: 2, Parent: 1, Layer: "bianchi", Start: 20, End: 30},
		{Op: 0, ID: 3, Parent: 0, Layer: "multihop", Start: 50, End: 90},
		{Op: 0, ID: 4, Parent: 3, Layer: "topology", Start: 80, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]int64{"bench": 30, "experiments": 20, "bianchi": 10, "multihop": 30, "topology": 40}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self[%s] = %d, want %d", l, got[l], w)
		}
	}
	col := newCollector()
	// Drop the span that overhangs its parent; the rest must add up.
	if err := col.layerBreakdown(spans[:4]); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range layers {
		sum += col.values["self."+l+".ms"]
	}
	if op := col.values["trace.op_ms"]; op != 100/1e6 || math.Abs(sum-op) > 1e-15 {
		t.Fatalf("layers sum to %g ms, op is %g ms", sum, op)
	}

	overlapping := append(spans[:4:4], span{Op: 0, ID: 4, Parent: 0, Layer: "service", Start: 30, End: 60})
	if err := newCollector().layerBreakdown(overlapping); err == nil {
		t.Fatal("overlapping sibling spans were not reported")
	}
}

func TestCorruptedDigestIsCaught(t *testing.T) {
	reps := []*experiments.Report{{
		ID: "T2", Title: "t", Text: "table",
		Artifacts: []experiments.Artifact{{Name: "t2.csv", Content: "w,payoff\n116,0.25\n"}},
		Metrics:   map[string]float64{"w": 116},
	}}
	ref := map[int]digest{0: reportsDigest(reps)}
	reps[0].Artifacts[0].Content = "w,payoff\n116,0.26\n"
	var tl tally
	checkDigests(&tl, []opRecord{{0, ref[0]}, {0, reportsDigest(reps)}}, ref)
	if tl[outcomeOK] != 1 || tl[outcomeMismatch] != 1 {
		t.Fatalf("report digest: outcomes %v; want one OK, one mismatch", tl)
	}

	res := &multihop.SimResult{Nodes: make([]multihop.NodeStats, 3), Time: 1, Slots: 2}
	before := simDigest(res)
	res.Nodes[2].HiddenCollisions++
	if simDigest(res) == before {
		t.Fatal("changing one node's counters left the simulation digest unchanged")
	}
}

// fakeDaemon serves the real service API with runners that take runFor
// and return a fixed payload, so client timing can be checked exactly.
func fakeDaemon(t *testing.T, runFor time.Duration) *daemon {
	t.Helper()
	srv, err := service.New(service.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for kind := range runLayer {
		srv.RegisterRunner(kind, func(ctx context.Context, _ json.RawMessage, _ func(any)) (any, error) {
			time.Sleep(runFor)
			return map[string]int{"reps": 6, "rounds": 1}, nil
		})
	}
	srv.Start()
	d := &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}
	d.c = newClient(d.ts.URL)
	t.Cleanup(d.stop)
	return d
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	d := fakeDaemon(t, 5*time.Millisecond)
	sched, err := newSchedule(1)
	if err != nil {
		t.Fatal(err)
	}

	// A job sent 50 ms after it was due is charged those 50 ms.
	due := time.Now().Add(-50 * time.Millisecond)
	rec := d.c.do(0, sched.job(0), due)
	if rec.outcome != outcomeOK {
		t.Fatalf("outcome %d", rec.outcome)
	}
	if rec.latency() < 55*time.Millisecond || rec.latency() != rec.observed.Sub(rec.due) {
		t.Fatalf("latency %v; want due-to-result, at least 50 ms late plus the 5 ms run", rec.latency())
	}
	if rec.sent.Sub(rec.due) < 50*time.Millisecond {
		t.Fatalf("generator lateness %v, want >= 50ms", rec.sent.Sub(rec.due))
	}

	// Due times follow the fixed rate whatever the daemon does.
	var next atomic.Int64
	recs := openLoop(d.c, sched, &next, 200, 100*time.Millisecond, nil)
	if len(recs) != 20 {
		t.Fatalf("%d jobs in 100 ms at 200/s, want 20", len(recs))
	}
	for k := 1; k < len(recs); k++ {
		if gap := recs[k].due.Sub(recs[k-1].due); gap != 5*time.Millisecond {
			t.Fatalf("due gap %v between jobs %d and %d, want 5ms", gap, k-1, k)
		}
		if recs[k].outcome != outcomeOK || recs[k].latency() < 5*time.Millisecond {
			t.Fatalf("job %d: outcome %d latency %v", k, recs[k].outcome, recs[k].latency())
		}
	}
}

func TestScheduleIsSeededAndKeepsTheMix(t *testing.T) {
	a, _ := newSchedule(7)
	b, _ := newSchedule(7)
	c, _ := newSchedule(8)
	counts := map[string]int{}
	differs := false
	for i := 0; i < 10*len(a.cycle); i++ {
		ja, jb := a.job(i), b.job(i)
		if ja.key != jb.key || string(ja.body) != string(jb.body) {
			t.Fatalf("job %d differs between equal seeds", i)
		}
		if string(ja.body) != string(c.job(i).body) {
			differs = true
		}
		counts[ja.key[:len(ja.key)-2]]++
	}
	if !differs {
		t.Fatal("another seed gave the same jobs")
	}
	want := map[string]int{"replicate-n50": 60, "replicate-n100": 20, "singlehop": 10, "detect": 10}
	for k, w := range want {
		if counts[k] != w {
			t.Errorf("%s: %d of 100 jobs, want %d", k, counts[k], w)
		}
	}
}

func TestBenchmarkJSONListsEmittedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, perfbench has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not in perfbench", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, perfbench emits %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, perfbench has %+v", i, m, endToEnd[i])
		}
	}
	specs := perLayer()
	if len(doc.PerLayer) != len(specs) {
		t.Fatalf("%d per-layer metrics declared, perfbench emits %d", len(doc.PerLayer), len(specs))
	}
	for i, m := range doc.PerLayer {
		if m.Name != specs[i].name || m.Unit != specs[i].unit {
			t.Errorf("per_layer[%d] = %+v, perfbench has %+v", i, m, specs[i])
		}
	}
}
