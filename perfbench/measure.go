package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"selfishmac/internal/experiments"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd is the untraced run's metric set. Every workload reports all
// of them and none can read 0, so each can carry a regression bound.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"capacity_ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// layers are the repository modules a traced op is split into; "bench"
// is perfbench's own time between calls.
var layers = []string{"bench", "experiments", "bianchi", "service", "replicate", "multihop", "topology", "macsim", "stream"}

// perLayer is the traced run's metric set. A workload reports 0 for a
// metric of a layer it does not exercise and for a percentile the
// ten-samples rule withholds (listed in the result file's "withheld").
func perLayer() []metricSpec {
	specs := []metricSpec{
		{"fail_frac", "frac"},
		{"op_p90_ms", "ms"},
		{"events_per_s", "1/s"},
	}
	for _, r := range experiments.All() {
		specs = append(specs, metricSpec{"experiments." + r.ID + ".ms", "ms"})
	}
	specs = append(specs,
		metricSpec{"bianchi.cache_hits", "count"},
		metricSpec{"bianchi.cache_misses", "count"},
		metricSpec{"bianchi.hit_ratio", "frac"},
		metricSpec{"topology.new.ms", "ms"},
		metricSpec{"topology.adjacency.ms", "ms"},
		metricSpec{"topology.step_delta.ms", "ms"},
		metricSpec{"topology.links", "count"},
		metricSpec{"multihop.simulate.ms", "ms"},
		metricSpec{"multihop.static.ms", "ms"},
		metricSpec{"multihop.mobility.ms", "ms"},
		metricSpec{"multihop.events", "count"},
		metricSpec{"multihop.ns_per_event", "ns"},
		metricSpec{"service.queue_wait.p50_ms", "ms"},
		metricSpec{"service.queue_wait.p90_ms", "ms"},
		metricSpec{"service.run.replicate.p50_ms", "ms"},
		metricSpec{"service.run.singlehop.p50_ms", "ms"},
		metricSpec{"service.run.detect.p50_ms", "ms"},
		metricSpec{"service.overhead.p50_ms", "ms"},
		metricSpec{"service.polls_per_job", "count"},
		metricSpec{"service.rejected", "count"},
		metricSpec{"replicate.reps_per_job", "count"},
		metricSpec{"replicate.rounds_per_job", "count"},
		metricSpec{"replicate.ms_per_rep", "ms"},
		metricSpec{"stream.flags_per_job", "count"},
		metricSpec{"go.alloc_mb_per_op", "MB"},
		metricSpec{"go.gc_cycles_per_op", "count"},
		metricSpec{"gen.late_p90_ms", "ms"},
		metricSpec{"trace.overhead_frac", "frac"},
		metricSpec{"trace.op_ms", "ms"},
	)
	for _, l := range layers {
		specs = append(specs, metricSpec{"self." + l + ".ms", "ms"})
	}
	return specs
}

// collector gathers a workload's metric values and the percentiles the
// ten-samples rule withheld.
type collector struct {
	values   map[string]float64
	withheld []string
}

func newCollector() *collector { return &collector{values: make(map[string]float64)} }

func (c *collector) set(name string, v float64) { c.values[name] = v }

// tail records the q-quantile of samples under name, or notes it as
// withheld when fewer than ten samples lie beyond it.
func (c *collector) tail(name string, samples []float64, q float64) {
	if v, ok := percentile(samples, q); ok {
		c.values[name] = v
		return
	}
	c.withheld = append(c.withheld, fmt.Sprintf("%s (%d samples)", name, len(samples)))
}

// finish builds the result's metric map for the run mode: every
// end-to-end metric must be present and positive; a per-layer metric the
// workload did not set reads 0. A name outside the mode's set is a bug.
func (c *collector) finish(traced bool) (map[string]metric, error) {
	specs := endToEnd
	if traced {
		specs = perLayer()
	}
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := c.values[s.name]
		if !traced && (!ok || !(v > 0) || math.IsInf(v, 0)) {
			return nil, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", s.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	for name := range c.values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the run's metric set", name)
		}
	}
	return out, nil
}

// median returns the middle value of samples (the mean of the two middle
// values for an even count), or 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of samples. It reports
// false — the percentile is withheld — when fewer than ten samples lie
// beyond it, so a tail is never read off a handful of points.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < 10 {
		return 0, false
	}
	return sortedCopy(samples)[rank-1], true
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome classifies one attempted op.
type outcome int

const (
	outcomeOK       outcome = iota
	outcomeError            // the call returned an error
	outcomeRejected         // the daemon answered 429
	outcomeNotDone          // the job ended in a state other than done
	outcomeMismatch         // the output differs from its oracle
	numOutcomes
)

// tally counts attempted ops by outcome; every outcome but OK is a
// failure.
type tally [numOutcomes]int

func (t *tally) add(o outcome) { t[o]++ }

func (t *tally) attempted() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

func (t *tally) failed() int { return t.attempted() - t[outcomeOK] }

func (t *tally) failFrac() float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted())
}

// newResult assembles a result from the tally and the collected metrics.
func newResult(t *tally, c *collector, traced bool) (*result, error) {
	if traced {
		c.set("fail_frac", t.failFrac())
	}
	m, err := c.finish(traced)
	if err != nil {
		return nil, err
	}
	return &result{Correct: t.failed() == 0, Attempted: t.attempted(), Failed: t.failed(), Metrics: m}, nil
}

// digest is a SHA-256 over an op's output.
type digest [sha256.Size]byte

// opRecord is one op's digest, for the oracle pass after the timed
// phase; k names the input set it ran on.
type opRecord struct {
	k int
	d digest
}

// checkDigests counts each op whose digest differs from its seed's
// oracle digest as a mismatch, and every other op as OK.
func checkDigests(t *tally, records []opRecord, ref map[int]digest) {
	for _, r := range records {
		if want, ok := ref[r.k]; ok && want == r.d {
			t.add(outcomeOK)
		} else {
			t.add(outcomeMismatch)
		}
	}
}

// rssEvery is how often the RSS sampler reads the resident set size, and
// rssWindow the span over which it takes each peak.
const (
	rssEvery  = 5 * time.Millisecond
	rssWindow = 2500 * time.Millisecond
)

// rssSampler tracks the process's resident set size by reading
// /proc/self/statm every rssEvery. The kernel's own high-water mark
// (VmHWM, ru_maxrss) is refreshed only when memory is unmapped, so from
// run to run it jumps by whatever transient preceded an unmap.
type rssSampler struct {
	stop, done chan struct{}
	once       sync.Once
	samples    []rssSample // owned by the sampler goroutine until done closes
	err        error
}

// rssSample is one reading: bytes resident at offset at from the start.
type rssSample struct {
	at    time.Duration
	bytes int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		start := time.Now()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			r, err := residentBytes()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, rssSample{time.Since(start), r})
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for it; it may be called repeatedly.
func (s *rssSampler) halt() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// peakMB stops the sampler and returns windowPeak of its samples in MB.
func (s *rssSampler) peakMB() (float64, error) {
	s.halt()
	return float64(windowPeak(s.samples, rssWindow)) / (1 << 20), s.err
}

// windowPeak is the median over consecutive windows of the highest
// sample in each. A trailing partial window counts only when there is
// no whole one. One peak over the whole run would be the single worst
// moment of garbage-collector timing; the median of window peaks is the
// peak a window of the run typically reaches.
func windowPeak(samples []rssSample, window time.Duration) int64 {
	var peaks []float64
	var cur int64
	end := window
	for _, sm := range samples {
		for sm.at >= end {
			if cur > 0 { // a window without samples has no peak
				peaks = append(peaks, float64(cur))
			}
			cur, end = 0, end+window
		}
		cur = max(cur, sm.bytes)
	}
	if len(peaks) == 0 {
		return cur
	}
	return int64(median(peaks))
}

func residentBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm: %w", err)
	}
	return pages * int64(os.Getpagesize()), nil
}

// processCPU returns the user plus system CPU time of every thread of
// the process so far. Unlike wall time it leaves out time the host
// steals from the process's CPUs.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// memDelta measures heap allocation and GC cycles across a region.
type memDelta struct {
	bytes  uint64
	cycles uint32
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{bytes: ms.TotalAlloc, cycles: ms.NumGC}
}

func (m memDelta) since(start memDelta) memDelta {
	return memDelta{bytes: m.bytes - start.bytes, cycles: m.cycles - start.cycles}
}

func (m memDelta) plus(o memDelta) memDelta {
	return memDelta{bytes: m.bytes + o.bytes, cycles: m.cycles + o.cycles}
}

// setMem reports the per-op allocation and GC rates over ops ops.
func (c *collector) setMem(total memDelta, ops int) {
	if ops == 0 {
		return
	}
	c.set("go.alloc_mb_per_op", float64(total.bytes)/(1<<20)/float64(ops))
	c.set("go.gc_cycles_per_op", float64(total.cycles)/float64(ops))
}
