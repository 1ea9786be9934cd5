package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"failstutter/internal/experiments"
	"failstutter/internal/oracle"
	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// A workload is one input to the benchmark: the serial experiment suite
// or one fleet configuration. Exactly one of suite and fleet is set.
type workload struct {
	name  string
	suite *suiteSpec
	fleet *fleetSpec
}

// suiteSpec runs registry experiments one after another in registry
// order, each with the default shard count.
type suiteSpec struct {
	exps  []experiments.Experiment
	quick bool
	// run calls into the experiment; tests substitute it to inject a bad
	// result.
	run func(experiments.Experiment, experiments.Config) *experiments.Table
}

// fleetSpec runs one experiments.RunFleetScenario per pass.
type fleetSpec struct {
	disks, shards, workers int
	// traced runs the fleet with per-shard collectors under the
	// experiments.FleetRecorder flight recorder, as a traced E32 does.
	traced bool
	// run calls into the fleet; tests substitute it to inject a bad
	// result.
	run func(experiments.FleetParams) experiments.FleetResult
}

// Workload sizes. suite is the paper-scale registry minus E32, whose
// 2^20-disk fleet would turn the suite into a fleet benchmark. The
// fleets are sized so one pass takes a few seconds on two cores.
const (
	fleetDisks       = 1 << 18
	fleetTracedDisks = 1 << 17
)

// newWorkload resolves a workload name. cores is the shard and sweep
// worker count of the parallel fleets.
func newWorkload(name string, cores int) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "suite":
		exps, err := suiteExperiments()
		if err != nil {
			return nil, err
		}
		w.suite = &suiteSpec{exps: exps, run: runExperiment}
	case "fleet":
		w.fleet = &fleetSpec{disks: fleetDisks, shards: 1, workers: 1, run: experiments.RunFleetScenario}
	case "fleet-sharded":
		w.fleet = &fleetSpec{disks: fleetDisks, shards: cores, workers: cores, run: experiments.RunFleetScenario}
	case "fleet-traced":
		w.fleet = &fleetSpec{disks: fleetTracedDisks, shards: cores, workers: cores, traced: true,
			run: experiments.RunFleetScenario}
	default:
		return nil, fmt.Errorf("unknown workload %q (want suite, fleet, fleet-sharded or fleet-traced)", name)
	}
	return w, nil
}

func runExperiment(e experiments.Experiment, cfg experiments.Config) *experiments.Table {
	return e.Run(cfg)
}

// suiteExperiments lists the registry in its own order without E32, and
// checks that every experiment has a plane so that its cost is
// attributed.
func suiteExperiments() ([]experiments.Experiment, error) {
	var exps []experiments.Experiment
	for _, e := range experiments.All() {
		if e.ID == "E32" {
			continue
		}
		if planeOf[e.ID] == "" {
			return nil, fmt.Errorf("experiment %s has no plane in the benchmark's plane map", e.ID)
		}
		exps = append(exps, e)
	}
	if len(exps) != len(planeOf) {
		return nil, fmt.Errorf("plane map lists %d experiments, registry has %d besides E32", len(planeOf), len(exps))
	}
	return exps, nil
}

// opResult is one operation of a pass: an experiment or a fleet run.
type opResult struct {
	name   string
	digest string // sha256 of the simulated output
	err    error  // panic or failed correctness gate
}

// passResult is one pass over a workload.
type passResult struct {
	wall   float64 // host seconds
	events uint64  // simulated kernel events; fleets only
	ops    []opResult
	root   int // the pass's root span; 0 when untraced
	// layers holds the per-layer metrics of a traced pass.
	layers map[string]float64
}

// pass runs the workload once. With rec nil it is the untraced pass the
// end-to-end metrics come from; otherwise it records a span around every
// call into a layer and fills the per-layer metrics.
func (w *workload) pass(seed uint64, rec *recorder) passResult {
	if w.suite != nil {
		return w.suite.pass(seed, rec)
	}
	return w.fleet.pass(seed, rec)
}

// barrierAgg sums the sharded-kernel profiles of one plane's runs.
type barrierAgg struct {
	windows, solo, delivered uint64
	barrierNanos             int64
}

func (s *suiteSpec) pass(seed uint64, rec *recorder) passResult {
	traced := rec != nil
	var res passResult
	if traced {
		res.layers = map[string]float64{}
	}
	barriers := map[string]*barrierAgg{"net": {}, "cluster": {}}
	root := rec.begin(0, "suite.pass")
	start := time.Now()
	for _, e := range s.exps {
		id := e.ID
		plane := planeOf[id]
		cfg := experiments.Config{Seed: seed, Quick: s.quick}
		if agg := barriers[plane]; traced && agg != nil {
			cfg.ObserveBarrier = func(_ string, st sim.BarrierStats, _ []uint64) {
				agg.windows += st.Windows
				agg.solo += st.SoloWindows
				agg.delivered += st.Delivered
				agg.barrierNanos += st.BarrierNanos
			}
		}
		var m0, m1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&m0)
		}
		sp := rec.begin(root, "experiments."+id+".Run")
		t0 := time.Now()
		tbl, err := guardRun(s.run, e, cfg)
		dt := time.Since(t0).Seconds()
		if traced {
			runtime.ReadMemStats(&m1)
			alloc := mib(m1.TotalAlloc - m0.TotalAlloc)
			rec.end(sp, map[string]float64{"alloc_mib": alloc})
			res.layers["experiments."+id+".wall_s"] = dt
			res.layers["plane."+plane+".wall_s"] += dt
			res.layers["plane."+plane+".alloc_mb"] += alloc
		}
		op := opResult{name: id, err: err}
		if err == nil {
			op.digest = tableDigest(tbl)
			if oracle.Covers(id) {
				osp := rec.begin(root, "oracle.Analyze")
				op.err = oracleGate(oracle.Analyze(oracle.Input{Table: tbl, Seed: seed, Quick: s.quick}))
				rec.end(osp, nil)
			}
		}
		res.ops = append(res.ops, op)
	}
	res.wall = time.Since(start).Seconds()
	rec.end(root, nil)
	res.root = root
	if traced {
		for plane, agg := range barriers {
			p := "sim." + plane + "."
			res.layers[p+"windows"] = float64(agg.windows)
			res.layers[p+"solo_frac"] = ratio(float64(agg.solo), float64(agg.windows))
			res.layers[p+"delivered"] = float64(agg.delivered)
			res.layers[p+"barrier_s"] = float64(agg.barrierNanos) / 1e9
		}
	}
	return res
}

// guardRun runs one experiment, turning a panic into an error that names
// the experiment and seed.
func guardRun(run func(experiments.Experiment, experiments.Config) *experiments.Table,
	e experiments.Experiment, cfg experiments.Config) (tbl *experiments.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment %s seed %d: panic: %v", e.ID, cfg.Seed, p)
		}
	}()
	return run(e, cfg), nil
}

// oracleGate fails an experiment whose conformance report has any row
// out of band.
func oracleGate(rep *oracle.Report, err error) error {
	if err != nil {
		return err
	}
	for _, row := range rep.Rows {
		if !row.Pass() {
			return fmt.Errorf("experiment %s seed %d: oracle row %s/%s out of band: predicted %g observed %g (%s, tol %g)",
				rep.Experiment, rep.Seed, row.Model, row.Quantity, row.Predicted, row.Observed, row.Bound, row.Tol)
		}
	}
	return nil
}

// tableDigest hashes everything an experiment reports: the formatted
// table and every named metric.
func tableDigest(t *experiments.Table) string {
	h := sha256.New()
	fmt.Fprintln(h, t.Format())
	for _, k := range t.MetricKeys() {
		v, _ := t.Metric(k)
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (f *fleetSpec) pass(seed uint64, rec *recorder) passResult {
	traced := rec != nil
	p := experiments.FleetParams{Disks: f.disks, Shards: f.shards, Seed: seed, SweepWorkers: f.workers}
	var tel *experiments.Telemetry
	if f.traced {
		rc := experiments.FleetRecorder(seed)
		tel = &experiments.Telemetry{Tracer: trace.NewTracer(), Metrics: trace.NewRegistry(), Recorder: &rc}
		tel.Tracer.SetFlightRecorder(rc)
		p.Telemetry = tel
	}
	var st sim.BarrierStats
	var perShard []uint64
	var m0, m1 runtime.MemStats
	if traced {
		p.ObserveBarrier = func(s sim.BarrierStats, ps []uint64) { st, perShard = s, ps }
		runtime.ReadMemStats(&m0)
	}
	root := rec.begin(0, "fleet.pass")
	start := time.Now()
	sp := rec.begin(root, "experiments.RunFleetScenario")
	r := f.run(p)
	runWall := time.Since(start).Seconds()
	res := passResult{events: r.Events}
	if traced {
		runtime.ReadMemStats(&m1)
		rec.end(sp, map[string]float64{
			"window_ns": float64(st.WindowNanos), "sweep_ns": float64(st.SweepNanos),
			"deliver_ns": float64(st.DeliverNanos), "events": float64(r.Events),
		})
	}
	res.ops = []opResult{{name: "fleet", digest: fleetDigest(r), err: fleetGate(r, seed)}}
	res.wall = time.Since(start).Seconds()
	rec.end(root, nil)
	res.root = root
	if !traced {
		return res
	}
	window := float64(st.WindowNanos) / 1e9
	res.layers = map[string]float64{
		"sim.window_s":        window,
		"sim.ns_per_event":    ratio(float64(st.WindowNanos), float64(st.Fired)),
		"sim.windows":         float64(st.Windows),
		"sim.solo_windows":    float64(st.SoloWindows),
		"sim.shard_imbalance": imbalance(perShard),
		"sim.deliver_s":       float64(st.DeliverNanos) / 1e9,
		"detect.sweep_s":      float64(st.SweepNanos) / 1e9,
		// One sweep per tick, and FlaggedPerSweep has one entry per sweep.
		"detect.ns_per_member":       ratio(float64(st.SweepNanos), float64(f.disks*len(r.FlaggedPerSweep))),
		"experiments.fleet_other_s":  runWall - window - float64(st.BarrierNanos)/1e9,
		"experiments.fleet_alloc_mb": mib(m1.TotalAlloc - m0.TotalAlloc),
		"trace.recorded_spans":       0,
		"trace.retained_spans":       0,
		"trace.ns_per_span":          0,
	}
	if tel != nil {
		recorded := tel.Tracer.Recorded()
		res.layers["trace.recorded_spans"] = float64(recorded)
		res.layers["trace.retained_spans"] = float64(tel.Tracer.Len())
		res.layers["trace.ns_per_span"] = ratio(float64(st.WindowNanos), float64(recorded))
	}
	return res
}

// fleetGate fails a fleet run unless every injected stutter and failure
// was found and no healthy disk was flagged.
func fleetGate(r experiments.FleetResult, seed uint64) error {
	if r.DetectedStutter != r.InjectedStutter || r.DetectedFail != r.InjectedFail || r.FalseAlarms != 0 {
		return fmt.Errorf("fleet seed %d: stutter found %d/%d, fail found %d/%d, false alarms %d",
			seed, r.DetectedStutter, r.InjectedStutter, r.DetectedFail, r.InjectedFail, r.FalseAlarms)
	}
	return nil
}

func fleetDigest(r experiments.FleetResult) string { return digest(fmt.Sprintf("%+v", r)) }

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// imbalance is the busiest shard's event count over the mean.
func imbalance(perShard []uint64) float64 {
	var sum, max uint64
	for _, n := range perShard {
		sum += n
		if n > max {
			max = n
		}
	}
	return ratio(float64(max)*float64(len(perShard)), float64(sum))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mib(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
