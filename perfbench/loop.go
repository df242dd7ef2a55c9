package main

import "time"

// loopStats is what a single-client closed loop measured.
type loopStats struct {
	lat, latTraced []float64 // latencies in ms of the untraced and traced ops
	cpu            []float64 // process CPU time in ms of each untraced op
	mem            memDelta  // heap allocation over the traced ops
}

// singleClientLoop runs op back to back for dur, one client. With a
// tracer, every second op gets an opTimer and a heap delta around it. An
// op that returns an error counts as a failure and has no latency;
// otherwise the func it returns runs after the op's clocks have stopped,
// which is where its output is checked.
func singleClientLoop(dur time.Duration, tr *tracer, name string, t *tally, op func(i int, ot *opTimer) (func(), error)) (loopStats, error) {
	var st loopStats
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		var ot *opTimer
		var m0 memDelta
		traced := tr != nil && i%2 == 1
		if traced {
			m0 = readMem()
			ot = tr.begin(i, name, "bench", time.Now())
		}
		c0, err := processCPU()
		if err != nil {
			return st, err
		}
		t0 := time.Now()
		after, err := op(i, ot)
		end := time.Now()
		c1, cerr := processCPU()
		if cerr != nil {
			return st, cerr
		}
		if traced {
			ot.end(end)
			st.mem = st.mem.plus(readMem().since(m0))
		}
		switch {
		case err != nil:
			t.add(outcomeError)
			continue
		case traced:
			st.latTraced = append(st.latTraced, ms(end.Sub(t0)))
		default:
			st.lat = append(st.lat, ms(end.Sub(t0)))
			st.cpu = append(st.cpu, ms(c1-c0))
		}
		after()
	}
	return st, nil
}

// setEndToEnd reports the end-to-end metrics of a single-client
// workload: op time and CPU time are medians over the untraced ops. With
// one client the closed loop's rate is the inverse of its op time, so
// capacity_ops_per_s is derived from op_p50_ms; it is reported because
// every workload must report every end-to-end metric.
func (c *collector) setEndToEnd(setupS float64, st loopStats, rssMB float64) {
	p50 := median(st.lat)
	c.set("setup_s", setupS)
	c.set("op_p50_ms", p50)
	c.set("capacity_ops_per_s", 1000/p50)
	c.set("cpu_ms_per_op", median(st.cpu))
	c.set("peak_rss_mb", rssMB)
}

// setTraced reports the per-layer metrics every single-client workload
// shares: the op tail, heap rates, tracing overhead and layer
// self times.
func (c *collector) setTraced(st loopStats, spans []span) error {
	// Tracing costs about nothing (trace.overhead_frac), so the tail is
	// read off every op of the run, traced or not.
	c.tail("op_p90_ms", append(append([]float64(nil), st.lat...), st.latTraced...), 0.90)
	c.setMem(st.mem, len(st.latTraced))
	setOverhead(c, st.lat, st.latTraced)
	return c.layerBreakdown(spans)
}

// setOverhead reports how much slower traced ops ran than untraced ones
// of the same run.
func setOverhead(c *collector, untraced, traced []float64) {
	if u := median(untraced); u > 0 && len(traced) > 0 {
		c.set("trace.overhead_frac", median(traced)/u-1)
	}
}
