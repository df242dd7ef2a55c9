package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"selfishmac/internal/rng"
	"selfishmac/internal/service"
)

const (
	// openLoopRate is the open loop's fixed job rate: about a quarter of
	// the closed-loop capacity of a 2-CPU host (100–140 jobs/s on this
	// mix). At half capacity a slower spell of a shared host pushed the
	// queue towards saturation and the median latency up by half; at a
	// quarter, queueing adds little, so latency follows the host's speed
	// without amplifying it. Never tuned per run.
	openLoopRate = 25.0
	// pollInterval is the fixed /result poll period; the API has no
	// blocking wait. Each job starts polling at its own phase within the
	// period (pollPhase), so latencies are not quantized to whole periods.
	pollInterval = 2 * time.Millisecond
	// capacityShare is the part of --seconds the untraced run spends in
	// the closed-loop capacity phase; the open loop gets the rest.
	capacityShare = 0.4
	// jobVariants is how many parameter sets each mix entry alternates
	// between, so identical-params jobs run after different ones on the
	// same pooled engines.
	jobVariants = 2
)

// mixEntry is one job type of the daemon mix; weight is its share of
// every ten jobs.
type mixEntry struct {
	name   string
	kind   string
	weight int
	params func(seed uint64) any
}

// Job sizes are the service's documented defaults, which the repository
// README's selfishmacd replicate and detect examples also submit:
// replicate and singlehop jobs run 24 replications (the default
// max_reps) of 2 s and 1 s of simulated time, detect jobs 30 s. The
// workload is defined as mostly n=50 replicate jobs, some n=100 replicate
// jobs, plus singlehop and detect jobs; 6/2/1/1 of every ten jobs makes
// that concrete, as no traffic trace of a real deployment exists to take
// a mix from. The n=100 shape keeps the default network's node density
// (1414 m square) and makes the engine pools see a second key. Every job
// fixes its replication count (rel_ci < 0), so its cost does not depend
// on adaptive stopping, and replicates on one worker, so the daemon's
// nproc job workers are the parallelism and concurrent jobs do not
// oversubscribe the CPUs.
var daemonMix = []mixEntry{
	{"replicate-n50", "replicate", 6, func(s uint64) any {
		return service.ReplicateParams{BaseSeed: s, MinReps: 24, MaxReps: 24, RelCI: -1, Workers: 1}
	}},
	{"replicate-n100", "replicate", 2, func(s uint64) any {
		return service.ReplicateParams{Nodes: 100, Width: 1414, Height: 1414,
			BaseSeed: s, MinReps: 24, MaxReps: 24, RelCI: -1, Workers: 1}
	}},
	{"singlehop", "singlehop", 1, func(s uint64) any {
		return service.SinglehopParams{BaseSeed: s, MinReps: 24, MaxReps: 24, RelCI: -1, Workers: 1}
	}},
	{"detect", "detect", 1, func(s uint64) any {
		return service.DetectParams{Seed: s}
	}},
}

// jobSpec is one job to submit; key identifies its parameters.
type jobSpec struct {
	kind string
	key  string
	body []byte
}

// schedule maps a job index to a job, deterministically from the seed:
// each block of ten jobs holds every entry at its weight, in an order
// and with variants drawn from the seed.
type schedule struct {
	seed  uint64
	specs [][]jobSpec // [entry][variant]
	cycle []int       // entry index per slot of a block
}

func newSchedule(seed uint64) (*schedule, error) {
	s := &schedule{seed: seed}
	for e, m := range daemonMix {
		var vs []jobSpec
		for v := 0; v < jobVariants; v++ {
			params, err := json.Marshal(m.params(rng.DeriveSeed(seed, "perfbench.daemon."+m.name, v)))
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(service.SubmitRequest{Kind: m.kind, Params: params})
			if err != nil {
				return nil, err
			}
			vs = append(vs, jobSpec{kind: m.kind, key: fmt.Sprintf("%s/%d", m.name, v), body: body})
		}
		s.specs = append(s.specs, vs)
		for w := 0; w < m.weight; w++ {
			s.cycle = append(s.cycle, e)
		}
	}
	return s, nil
}

// traced reports whether the i-th job is traced in a traced run: whole
// blocks alternate, so traced and untraced jobs have the same mix.
func (s *schedule) traced(i int) bool { return (i/len(s.cycle))%2 == 1 }

// job returns the i-th job of the schedule.
func (s *schedule) job(i int) jobSpec {
	block, slot := i/len(s.cycle), i%len(s.cycle)
	src := rng.New(rng.DeriveSeed(s.seed, "perfbench.daemon.block", block))
	order := src.Perm(len(s.cycle))
	e := s.cycle[order[slot]]
	v := int(rng.DeriveSeed(s.seed, "perfbench.daemon.variant", i) % jobVariants)
	return s.specs[e][v]
}

// warmup returns one job per mix entry.
func (s *schedule) warmup() []jobSpec {
	out := make([]jobSpec, len(s.specs))
	for e := range s.specs {
		out[e] = s.specs[e][0]
	}
	return out
}

// jobRecord is what the client observed of one job. Times: due is when
// the job was scheduled to be sent, sent when its POST began, observed
// when its terminal result arrived; created, started and finished are
// the daemon's own JobView timestamps.
type jobRecord struct {
	index                      int // position in the schedule
	spec                       jobSpec
	outcome                    outcome
	due, sent, observed        time.Time
	created, started, finished time.Time
	polls                      int
	result                     digest
	reps, rounds               int
	flags                      int64
}

func (r *jobRecord) latency() time.Duration { return r.observed.Sub(r.due) }

// client drives the daemon's HTTP API.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// get fetches path and decodes a 200 body into v; it returns the status.
func (c *client) get(path string, v any) (int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK || v == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

// do submits one job, polls its result at the fixed interval until it is
// terminal, then reads its timestamps.
func (c *client) do(index int, spec jobSpec, due time.Time) jobRecord {
	rec := jobRecord{index: index, spec: spec, due: due, sent: time.Now(), outcome: outcomeError}
	resp, err := c.hc.Post(c.base+"/api/v1/jobs", "application/json", bytes.NewReader(spec.body))
	if err != nil {
		return rec
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rec
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		rec.outcome = outcomeRejected
		return rec
	}
	var view service.JobView
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &view) != nil {
		return rec
	}
	var res struct {
		State  service.State   `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	for wait := pollPhase(index); ; wait = pollInterval {
		time.Sleep(wait)
		rec.polls++
		status, err := c.get("/api/v1/jobs/"+view.ID+"/result", &res)
		if err != nil {
			return rec
		}
		if status == http.StatusOK {
			break
		}
		if status != http.StatusConflict {
			return rec
		}
	}
	rec.observed = time.Now()
	if _, err := c.get("/api/v1/jobs/"+view.ID, &view); err != nil || view.Started == nil || view.Finished == nil {
		return rec
	}
	rec.created, rec.started, rec.finished = view.Created, *view.Started, *view.Finished
	if res.State != service.StateDone {
		rec.outcome = outcomeNotDone
		return rec
	}
	var payload struct {
		Reps   int   `json:"reps"`
		Rounds int   `json:"rounds"`
		Flags  int64 `json:"flags"`
	}
	if json.Unmarshal(res.Result, &payload) != nil {
		return rec
	}
	rec.reps, rec.rounds, rec.flags = payload.Reps, payload.Rounds, payload.Flags
	rec.result = sha256.Sum256(res.Result)
	rec.outcome = outcomeOK
	return rec
}

// pollPhase spreads the first poll of job i over one poll period with a
// golden-ratio sequence: evenly covered, and the same for every run.
func pollPhase(i int) time.Duration {
	const golden = 0.6180339887498949
	_, frac := math.Modf(float64(i) * golden)
	return time.Duration(math.Abs(frac) * float64(pollInterval))
}

// daemon is one in-process selfishmacd behind a loopback HTTP server.
type daemon struct {
	srv *service.Server
	ts  *httptest.Server
	c   *client
}

// startDaemon builds a server with nproc workers, serves it, waits for
// /readyz and runs one warm-up job per mix entry.
func startDaemon(warm []jobSpec) (*daemon, []jobRecord, error) {
	srv, err := service.New(service.Config{Workers: runtime.NumCPU()})
	if err != nil {
		return nil, nil, err
	}
	srv.Start()
	d := &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}
	d.c = newClient(d.ts.URL)
	for {
		status, err := d.c.get("/readyz", nil)
		if err == nil && status == http.StatusOK {
			break
		}
		if err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("readyz: %w", err)
		}
		time.Sleep(pollInterval)
	}
	var recs []jobRecord
	for i, spec := range warm {
		recs = append(recs, d.c.do(-1-i, spec, time.Now()))
	}
	return d, recs, nil
}

// stop closes the client's connections and the listener, then drains the
// worker pool.
func (d *daemon) stop() {
	d.c.hc.CloseIdleConnections()
	d.ts.Close()
	_ = d.srv.Shutdown(context.Background()) // always nil once the workers exit
}

// closedLoop runs clients that each send their next job as soon as the
// previous one is terminal, until the phase ends. It returns the records
// and the phase's wall time, which includes the last jobs' completion.
func closedLoop(c *client, sched *schedule, next *atomic.Int64, clients int, dur time.Duration) ([]jobRecord, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	per := make([][]jobRecord, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				per[w] = append(per[w], c.do(i, sched.job(i), time.Now()))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var recs []jobRecord
	for _, r := range per {
		recs = append(recs, r...)
	}
	return recs, elapsed
}

// openLoop sends jobs at the fixed rate regardless of completions: job k
// is due at start + k/rate and its latency counts from that due time, so
// a stall also charges the jobs it delayed. onDone runs on each job's
// goroutine after its record is complete.
func openLoop(c *client, sched *schedule, next *atomic.Int64, rate float64, dur time.Duration, onDone func(rec *jobRecord)) []jobRecord {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	recs := make([]jobRecord, n)
	var wg sync.WaitGroup
	start := time.Now().Add(interval)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		i := int(next.Add(1) - 1)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			recs[k] = c.do(i, sched.job(i), due)
			if onDone != nil {
				onDone(&recs[k])
			}
		}(k)
	}
	wg.Wait()
	return recs
}

// checkResults tallies every record: a job that was not Done is a
// failure, and so is a Done job whose result bytes differ from the first
// result seen for the same parameters.
func checkResults(t *tally, recs []jobRecord) {
	ref := make(map[string]digest)
	for i := range recs {
		r := &recs[i]
		if r.outcome != outcomeOK {
			t.add(r.outcome)
			continue
		}
		want, ok := ref[r.spec.key]
		if !ok {
			ref[r.spec.key] = r.result
			want = r.result
		}
		if want != r.result {
			t.add(outcomeMismatch)
			continue
		}
		t.add(outcomeOK)
	}
}

// runLayer is the layer a job kind's run span is attributed to: the
// module that does the kind's work as seen from outside — the replication
// pool over multihop engines, the single-hop engine, the online detector.
var runLayer = map[string]string{"replicate": "replicate", "singlehop": "macsim", "detect": "stream"}

// jobSpans records one job as an op: the root spans due → observed in
// the service layer; children are the generator's lateness, the queue
// wait and the run, the last two from the daemon's timestamps.
func jobSpans(tr *tracer, r *jobRecord) {
	ot := tr.begin(r.index, "daemon-mix", "service", r.due)
	ot.child("gen.late", "bench", r.due, r.sent)
	ot.child("service.queue", "service", r.created, r.started)
	ot.child("run."+r.spec.kind, runLayer[r.spec.kind], r.started, r.finished)
	ot.end(r.observed)
}

// daemonSetup is daemon-mix's set-up: a server up to /readyz plus one
// warm-up job per mix entry, each of which must end Done.
func daemonSetup(seed uint64, _ int) (func(), error) {
	sched, err := newSchedule(seed)
	if err != nil {
		return nil, err
	}
	d, warm, err := startDaemon(sched.warmup())
	if err != nil {
		return nil, err
	}
	for _, r := range warm {
		if r.outcome != outcomeOK {
			return d.stop, fmt.Errorf("warm-up job %s ended with outcome %d", r.spec.key, r.outcome)
		}
	}
	return d.stop, nil
}

func runDaemon(opts options) (*result, *runArtifacts, error) {
	sched, err := newSchedule(opts.seed)
	if err != nil {
		return nil, nil, err
	}
	col := newCollector()
	var all []jobRecord
	rss := startRSSSampler()
	defer rss.halt()

	// The run's own server; set-up was timed in child processes.
	d, warm, err := startDaemon(sched.warmup())
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()
	all = append(all, warm...)

	total := opts.duration()
	var next atomic.Int64
	var tr *tracer
	var capRecs, open []jobRecord
	var capElapsed, openCPU time.Duration
	var mem memDelta
	if !opts.traced {
		capDur := time.Duration(float64(total) * capacityShare)
		capRecs, capElapsed = closedLoop(d.c, sched, &next, runtime.NumCPU(), capDur)
		cpu0, err := processCPU()
		if err != nil {
			return nil, nil, err
		}
		open = openLoop(d.c, sched, &next, openLoopRate, total-capDur, nil)
		cpu1, err := processCPU()
		if err != nil {
			return nil, nil, err
		}
		openCPU = cpu1 - cpu0
	} else {
		// The traced run is open loop throughout; every second job is
		// recorded as spans once it has finished.
		tr = newTracer()
		m0 := readMem()
		open = openLoop(d.c, sched, &next, openLoopRate, total, func(r *jobRecord) {
			if sched.traced(r.index) && r.outcome == outcomeOK {
				jobSpans(tr, r)
			}
		})
		mem = readMem().since(m0)
	}
	rssMB, err := rss.peakMB()
	if err != nil {
		return nil, nil, err
	}
	all = append(append(all, capRecs...), open...)
	var t tally
	checkResults(&t, all)

	arts := &runArtifacts{}
	if !opts.traced {
		openLat := latencies(open, everyJob)
		col.set("setup_s", opts.setupS)
		col.set("op_p50_ms", median(openLat))
		col.set("capacity_ops_per_s", float64(len(latencies(capRecs, everyJob)))/capElapsed.Seconds())
		col.set("cpu_ms_per_op", ms(openCPU)/float64(len(openLat)))
		col.set("peak_rss_mb", rssMB)
	} else {
		if err := daemonLayers(col, sched, open, tr.spans, mem); err != nil {
			return nil, nil, err
		}
		arts.spans = tr.spans
	}
	arts.withheld = col.withheld
	res, err := newResult(&t, col, opts.traced)
	return res, arts, err
}

func everyJob(int) bool { return true }

// latencies returns the due-to-result latencies in ms of the completed
// jobs whose schedule index passes keep.
func latencies(recs []jobRecord, keep func(i int) bool) []float64 {
	var out []float64
	for _, r := range recs {
		if r.outcome == outcomeOK && keep(r.index) {
			out = append(out, ms(r.latency()))
		}
	}
	return out
}

// daemonLayers derives the per-layer metrics of a traced daemon run from
// its open-loop job records and spans.
func daemonLayers(col *collector, sched *schedule, open []jobRecord, spans []span, mem memDelta) error {
	col.tail("op_p90_ms", latencies(open, everyJob), 0.90)
	setOverhead(col,
		latencies(open, func(i int) bool { return !sched.traced(i) }),
		latencies(open, sched.traced))

	var queue, overhead, late, polls, perRep []float64
	run := make(map[string][]float64)
	var reps, rounds, nRep, flags, nDetect, rejected, done float64
	for _, r := range open {
		if r.outcome == outcomeRejected {
			rejected++
		}
		if r.outcome != outcomeOK {
			continue
		}
		done++
		late = append(late, ms(r.sent.Sub(r.due)))
		queue = append(queue, ms(r.started.Sub(r.created)))
		runMs := ms(r.finished.Sub(r.started))
		run[r.spec.kind] = append(run[r.spec.kind], runMs)
		overhead = append(overhead, ms(r.observed.Sub(r.sent)-r.finished.Sub(r.created)))
		polls = append(polls, float64(r.polls))
		switch r.spec.kind {
		case "replicate":
			reps += float64(r.reps)
			rounds += float64(r.rounds)
			nRep++
			if r.reps > 0 {
				perRep = append(perRep, runMs/float64(r.reps))
			}
		case "detect":
			flags += float64(r.flags)
			nDetect++
		}
	}
	col.set("service.queue_wait.p50_ms", median(queue))
	col.tail("service.queue_wait.p90_ms", queue, 0.90)
	for kind := range runLayer {
		col.set("service.run."+kind+".p50_ms", median(run[kind]))
	}
	col.set("service.overhead.p50_ms", median(overhead))
	col.set("service.polls_per_job", mean(polls))
	col.set("service.rejected", rejected)
	if nRep > 0 {
		col.set("replicate.reps_per_job", reps/nRep)
		col.set("replicate.rounds_per_job", rounds/nRep)
		col.set("replicate.ms_per_rep", median(perRep))
	}
	if nDetect > 0 {
		col.set("stream.flags_per_job", flags/nDetect)
	}
	col.tail("gen.late_p90_ms", late, 0.90)
	col.setMem(mem, int(done))
	return col.layerBreakdown(spans)
}
