// Command perfbench is the repository's end-to-end benchmark. It times
// calls into the public functions of internal/experiments,
// internal/service, internal/multihop, internal/topology and
// internal/bianchi from the outside, checks every output against an
// oracle, and prints one JSON result line:
//
//	perfbench --workload paper-all --seed 1 --seconds 30 --trace 0
//
// Workloads (README.md has the full definitions and the layer → metric →
// workload prediction table):
//
//   - paper-all: all 22 paper experiments at DefaultSettings on one
//     worker with fixed replication counts, closed loop, one client.
//   - daemon-mix: selfishmacd jobs over HTTP, a closed-loop capacity
//     phase with nproc clients, then an open loop at a fixed rate.
//   - mobile-n10k: topology.New plus multihop.Simulate at n=10000 with
//     random-waypoint mobility, closed loop, one client.
//
// With --trace 0 the result carries the end-to-end metrics, set-up time
// included: the workload's set-up runs several times, each in a fresh
// child process of this program, so each is cold. With --trace 1 every
// second op is traced (spans around the calls into each layer)
// and the result carries the per-layer metrics. Host facts, the full
// result and the spans are written under -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options are the inputs every workload receives.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	setupS  float64 // median cold set-up time in seconds; untraced runs only
}

// duration is the length of the measured phase.
func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// result is one run's outcome. Metrics holds either the end-to-end set
// (untraced run) or the per-layer set (traced run).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runArtifacts is what a workload hands back besides its result: notes
// on withheld percentiles and the spans of a traced run.
type runArtifacts struct {
	withheld []string
	spans    []span
}

// workload is one benchmark workload. setup does what must happen before
// its first timed op may begin; the stop func it returns, if any, runs
// after the set-up clock has stopped. An untraced run times setup
// setupReps times, each in a fresh child process (coldSetups).
type workload struct {
	run       func(opts options) (*result, *runArtifacts, error)
	setup     func(seed uint64, rep int) (stop func(), err error)
	setupReps int
}

var workloads = map[string]workload{
	"paper-all":   {runPaper, paperSetup, 3},
	"daemon-mix":  {runDaemon, daemonSetup, 5},
	"mobile-n10k": {runMobile, mobileSetup, 5},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-all, daemon-mix or mobile-n10k")
	seed := fs.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 traces every second op and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench-results", "directory for the result, host facts and spans")
	setupRep := fs.Int("setup-rep", -1, "internal: run set-up number n once and print its seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds %g must be positive", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", *trace)
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *trace == 1}
	if *setupRep >= 0 {
		return runSetup(stdout, w, opts.seed, *setupRep)
	}
	host := hostFacts(opts.seed)
	fmt.Fprintf(stdout, "# perfbench %s seed=%d trace=%d nproc=%d gomaxprocs=%d %s\n",
		*name, opts.seed, *trace, host.NProc, host.GoMaxProcs, host.GoVersion)

	if !opts.traced {
		s, err := coldSetups(*name, w, opts.seed)
		if err != nil {
			return fmt.Errorf("%s: %w", *name, err)
		}
		opts.setupS = s
	}
	// One untimed set-up in this process first, so lazy initialisation
	// and pools are warm before the first timed op.
	stop, err := w.setup(opts.seed, 0)
	if stop != nil {
		stop()
	}
	if err != nil {
		return fmt.Errorf("%s: warm-up: %w", *name, err)
	}
	res, arts, err := w.run(opts)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if err := writeRecord(*out, *name, *trace, host, res, arts); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runSetup is a set-up child: it runs w's set-up once and prints its
// wall time in seconds.
func runSetup(stdout io.Writer, w workload, seed uint64, rep int) error {
	start := time.Now()
	stop, err := w.setup(seed, rep)
	elapsed := time.Since(start)
	if stop != nil {
		stop()
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, strconv.FormatFloat(elapsed.Seconds(), 'g', -1, 64))
	return err
}

// coldSetups times w's set-up w.setupReps times, each in a fresh child
// process running this program with -setup-rep, so every set-up is cold:
// no pooled engine state, grown heap or warm cache is left from an
// earlier one. It returns the median in seconds.
func coldSetups(name string, w workload, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for k := 0; k < w.setupReps; k++ {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-setup-rep", strconv.Itoa(k))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up %d: %w", k, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("set-up %d: %w", k, err)
		}
		secs = append(secs, v)
	}
	return median(secs), nil
}

// host records the facts a result must be read against.
type host struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	Seed       uint64 `json:"seed"`
}

func hostFacts(seed uint64) host {
	return host{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Seed:       seed,
	}
}

// writeRecord stores the result with its host facts, and the spans of a
// traced run, under dir.
func writeRecord(dir, name string, trace int, h host, res *result, arts *runArtifacts) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, h.Seed, trace))
	rec := map[string]any{
		"workload": name,
		"trace":    trace,
		"host":     h,
		"written":  time.Now().UTC().Format(time.RFC3339),
		"withheld": arts.withheld,
		"result":   res,
	}
	if err := writeJSONFile(base+".json", rec); err != nil {
		return err
	}
	if len(arts.spans) == 0 {
		return nil
	}
	return writeJSONFile(base+"-spans.json", arts.spans)
}

func writeJSONFile(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(buf, '\n'))
	return errors.Join(werr, f.Close())
}
