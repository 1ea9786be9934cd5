// Command perfbench is the repository benchmark. It runs one workload —
// the paper-scale experiment suite or a 2^17–2^18-disk fleet — through
// the simulator's public entry points for a fixed number of host
// seconds, gates every operation on correctness and on output
// determinism, and prints its metrics. The last line of standard output
// is one JSON object: end-to-end metrics from untraced passes with
// -trace 0, per-layer metrics from traced passes with -trace 1.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload suite --seed 42 --seconds 30 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProbes is how many times a -trace 0 run times set-up; setup_s is
// their median. Probes are probeGap apart, so that a momentary stall of
// the host shifts a few of them and not the median.
const (
	setupProbes = 15
	probeGap    = 50 * time.Millisecond
)

// spansDir is where a -trace 1 run writes its spans, relative to the
// working directory.
const spansDir = ".bench_out"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	probe    bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "suite, fleet, fleet-sharded or fleet-traced")
	fs.Uint64Var(&o.seed, "seed", 42, "seed of every simulated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to run passes for (at least one pass runs)")
	fs.IntVar(&traceFlag, "trace", 0, "0: untraced passes, end-to-end metrics; 1: untraced and traced passes, per-layer metrics")
	fs.BoolVar(&o.probe, "probe", false, "stop where the first timed operation would begin (set-up timing)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	o.traced = traceFlag == 1
	return o, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	suite, err := suiteExperiments()
	if err != nil {
		return err
	}
	w, err := newWorkload(o.workload, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	env := describe(w, o.seed)
	if o.probe {
		fmt.Fprintln(stdout, "ready")
		return nil
	}
	var setup []float64
	if !o.traced {
		if setup, err = timeSetup(args); err != nil {
			return err
		}
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(envLine))
	if !env.Valid {
		fmt.Fprintf(os.Stderr, "perfbench: %d shards on %d CPUs measures oversubscription; this run is invalid\n",
			env.Shards, env.NumCPU)
	}
	res, err := measure(w, o.seed, o.seconds, o.traced, setup, perLayer(suite), spansDir, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// environment records what a result was measured on. Multi-core figures from a
// run with more shards than CPUs are marked invalid.
type environment struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	NumCPU       int    `json:"numcpu"`
	GoMaxProcs   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go"`
	Disks        int    `json:"disks,omitempty"`
	Shards       int    `json:"shards"`
	SweepWorkers int    `json:"sweep_workers,omitempty"`
	Valid        bool   `json:"valid"`
}

func describe(w *workload, seed uint64) environment {
	e := environment{
		Workload: w.name, Seed: seed,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		// The suite runs with the default shard count, one per GOMAXPROCS.
		Shards: runtime.GOMAXPROCS(0),
	}
	if f := w.fleet; f != nil {
		e.Disks, e.Shards, e.SweepWorkers = f.disks, f.shards, f.workers
	}
	e.Valid = e.Shards <= e.NumCPU
	return e
}

// timeSetup starts the benchmark setupProbes times in probe mode and
// times each from process start until it reports that it would begin its
// first timed operation.
func timeSetup(args []string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("timing set-up: %w", err)
	}
	out := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		if i > 0 {
			time.Sleep(probeGap)
		}
		cmd := exec.Command(exe, append(append([]string(nil), args...), "-probe")...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, fmt.Errorf("timing set-up: %w", err)
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("timing set-up: %w", err)
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		dt := time.Since(t0).Seconds()
		if _, err := io.Copy(io.Discard, pipe); err != nil && rerr == nil {
			rerr = err
		}
		werr := cmd.Wait()
		switch {
		case rerr != nil:
			return nil, fmt.Errorf("timing set-up: reading probe: %w", rerr)
		case werr != nil:
			return nil, fmt.Errorf("timing set-up: probe: %w", werr)
		case line != "ready\n":
			return nil, fmt.Errorf("timing set-up: probe printed %q", line)
		}
		out = append(out, dt)
	}
	return out, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure keeps running passes for about seconds, at least one.
// Untraced, every pass is untraced and the end-to-end metrics are
// reported; traced, untraced and traced passes alternate and the
// per-layer metrics are reported, with the spans written to outDir at
// the end. Every operation of every pass
// is attempted once: it fails on a panic, on a failed correctness gate,
// or when its output digest differs from its first pass's.
func measure(w *workload, seed uint64, seconds float64, traced bool, setup []float64,
	layers []metric, outDir string, log io.Writer) (result, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	first := map[string]string{}
	res := result{Metrics: map[string]value{}}
	tally := func(n int, kind string, p passResult, cpu float64) {
		for _, op := range p.ops {
			res.Attempted++
			switch d, seen := first[op.name]; {
			case op.err != nil:
				res.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", op.name, op.err)
			case seen && d != op.digest:
				res.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: FAIL %s seed %d: output digest %s differs from first pass's %s\n",
					op.name, seed, op.digest, d)
			case !seen:
				first[op.name] = op.digest
			}
		}
		fmt.Fprintf(log, "pass %d %s: wall %.4f s, cpu %.4f s, output digest %s\n", n, kind, p.wall, cpu, passDigest(p))
	}

	var walls, rates, tracedWalls, selfs []float64
	samples := map[string][]float64{}
	start := time.Now()
	for n := 1; ; n++ {
		iter := time.Now()
		order := []*recorder{nil}
		if traced {
			// Alternate which pass goes first, so that neither side always
			// pays for the process's first pass.
			order = []*recorder{nil, rec}
			if n%2 == 0 {
				order[0], order[1] = rec, nil
			}
		}
		for _, r := range order {
			// Every pass starts with the heap handed back to the OS, as in
			// a fresh process.
			debug.FreeOSMemory()
			cpu := cpuSeconds()
			p := w.pass(seed, r)
			cpu = cpuSeconds() - cpu
			if r == nil {
				tally(n, "untraced", p, cpu)
				walls = append(walls, p.wall)
				rates = append(rates, ratio(float64(p.events), p.wall))
				continue
			}
			tally(n, "traced", p, cpu)
			tracedWalls = append(tracedWalls, p.wall)
			selfs = append(selfs, rec.selfSeconds(p.root))
			for k, v := range p.layers {
				samples[k] = append(samples[k], v)
			}
		}
		// Stop before an iteration that would end past the deadline, so
		// that a run lasts about seconds however long a pass takes.
		if elapsed := time.Since(start).Seconds(); elapsed+time.Since(iter).Seconds() > seconds {
			break
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "operations: %d attempted, %d failed, failed_frac %g\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))

	if !traced {
		rss, err := peakRSS()
		if err != nil {
			return res, err
		}
		samples["wall_s"], samples["setup_s"], samples["peak_rss_mb"] = walls, setup, []float64{rss}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{median(samples[m.name]), m.unit}
			spread(log, m, samples[m.name])
		}
		return res, nil
	}

	samples["bench.traced_wall_s"] = tracedWalls
	samples["bench.self_s"] = selfs
	if w.fleet != nil {
		samples["sim.events_per_s"] = rates
	}
	for _, m := range layers {
		res.Metrics[m.name] = value{median(samples[m.name]), m.unit}
	}
	res.Metrics["bench.trace_overhead_s"] = value{median(tracedWalls) - median(walls), "s"}
	spread(log, metric{"wall_s (untraced)", "s"}, walls)
	spread(log, metric{"wall_s (traced)", "s"}, tracedWalls)
	fmt.Fprintf(log, "tracing overhead: %.4f s per pass (traced minus untraced median wall)\n",
		res.Metrics["bench.trace_overhead_s"].Value)
	tw := median(tracedWalls)
	fmt.Fprintf(log, "attribution: spans around layer calls cover %.2f%% of the traced wall\n", 100*(1-median(selfs)/tw))
	path, err := rec.write(outDir, w.name, seed)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(log, "spans: %d written to %s\n", len(rec.spans), path)
	return res, nil
}

// passDigest combines a pass's operation digests, in order.
func passDigest(p passResult) string {
	var b strings.Builder
	for _, op := range p.ops {
		b.WriteString(op.name + "=" + op.digest + ";")
	}
	return digest(b.String())[:16]
}

// spread prints a metric's median and quartiles over its samples.
func spread(log io.Writer, m metric, xs []float64) {
	q := quartiles(xs)
	fmt.Fprintf(log, "%s: median %.6g %s, quartiles %.6g..%.6g, n %d\n", m.name, median(xs), m.unit, q[0], q[2], len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles are the three cut points of Python's
// statistics.quantiles(xs, n=4), the exclusive method.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	switch len(s) {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// cpuSeconds is the user and system CPU time this process has used. It
// is only printed beside each pass's wall time, so a failed call reads 0.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSS is this process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM in /proc/self/status")
}
