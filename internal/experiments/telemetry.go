package experiments

import (
	"fmt"

	"failstutter/internal/detect"
	"failstutter/internal/profile"
	"failstutter/internal/raid"
	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// Telemetry gathers one experiment's observability artifacts: causal spans
// (Tracer), the verdict audit trail (Audit), and labeled metrics
// (Metrics). Each Run builds its own Telemetry, so artifacts stay
// per-experiment even when the runner fans experiments across workers.
// Any field may be nil when the corresponding flag is off.
type Telemetry struct {
	Tracer  *trace.Tracer
	Audit   *trace.AuditLog
	Metrics *trace.Registry
	// Profile marks that the profiling plane is on: sub-runs install a
	// station occupancy sampler so the profiler can reconstruct
	// queue-depth and backlog profiles alongside the span DAG.
	Profile bool
	// Recorder, when non-nil, bounds the tracing plane with a flight
	// recorder (fleet-scale experiments set it before their first
	// sub-run): the destination tracer and every per-shard collector get
	// the same ring/reservoir/seed configuration, which is what makes the
	// merged selection byte-identical at any shard count.
	Recorder *trace.RecorderConfig

	runSeq int
	clock  float64
}

// telemetry builds a fresh Telemetry per the config's observability
// flags, or nil when all of them are off — the nil fast path keeps the
// default run byte-identical to a build without this plane. Profile
// implies Trace and Metrics: the profiler needs the span DAG and a
// registry for its sampled series.
func (cfg Config) telemetry() *Telemetry {
	if !cfg.Trace && !cfg.Audit && !cfg.Metrics && !cfg.Profile {
		return nil
	}
	tel := &Telemetry{Profile: cfg.Profile}
	if cfg.Trace || cfg.Profile {
		tel.Tracer = trace.NewTracer()
	}
	if cfg.Audit {
		tel.Audit = trace.NewAuditLog()
	}
	if cfg.Metrics || cfg.Profile {
		tel.Metrics = trace.NewRegistry()
	}
	return tel
}

// attachProfile installs the profiling plane's station sampler on one
// sub-run's simulator, recording queue-depth and backlog series labeled
// with the run. A no-op unless profiling is on.
func (tel *Telemetry) attachProfile(s *sim.Simulator, run string) {
	if tel == nil || !tel.Profile {
		return
	}
	s.SetStationProbe(profile.StationSampler(tel.Metrics, run))
}

// attachSharded installs per-shard telemetry collectors on one sub-run's
// coordinator, feeding this telemetry's sinks (and flight-recorder
// bound, if set). Components wired afterwards record shard-locally; the
// sub-run's endSharded folds everything back. A no-op when telemetry is
// off.
func (tel *Telemetry) attachSharded(ss *sim.ShardedSimulator) {
	if tel == nil {
		return
	}
	ss.SetTelemetry(sim.TelemetrySinks{
		Tracer:         tel.Tracer,
		Metrics:        tel.Metrics,
		Audit:          tel.Audit,
		FlightRecorder: tel.Recorder,
	})
}

// nextRun labels one sub-run (one simulator instance) within the
// experiment, e.g. "3-adaptive-pull". Metric labels and span layout use
// it to keep sub-runs distinguishable.
func (tel *Telemetry) nextRun(name string) string {
	tel.runSeq++
	return fmt.Sprintf("%d-%s", tel.runSeq, name)
}

// endRun closes a sub-run at the simulator's final virtual time: open
// spans are flushed, and the time base advances so the next sub-run lays
// out after this one (with a 1 s gap) instead of overlaying it at t=0.
func (tel *Telemetry) endRun(s *sim.Simulator) {
	if tel == nil || tel.Tracer == nil {
		return
	}
	now := s.Now()
	tel.Tracer.Flush(now)
	tel.clock += now + 1
	tel.Tracer.Rebase(tel.clock)
}

// endSharded closes a sharded sub-run: the coordinator's per-shard
// collectors flush and fold into the telemetry sinks in canonical merge
// order, then the time base advances exactly as endRun does. The fold
// happens at the maximum shard clock — the one end-of-run instant that
// reads the same at every shard count — so the next sub-run's layout is
// placement-invariant too.
func (tel *Telemetry) endSharded(ss *sim.ShardedSimulator) {
	if tel == nil {
		return
	}
	end := ss.MergeTelemetry()
	if tel.Tracer == nil {
		return
	}
	tel.Tracer.Flush(end)
	tel.clock += end + 1
	tel.Tracer.Rebase(tel.clock)
}

// meter returns a labeled availability meter from the metrics registry,
// or a fresh unregistered one when telemetry (or the metrics flag) is
// off — call sites measure identically either way, the registry just
// doesn't export the unregistered instrument.
func (tel *Telemetry) meter(name string, threshold float64, labels ...trace.Label) *trace.AvailabilityMeter {
	if tel == nil {
		return trace.NewAvailabilityMeter(threshold)
	}
	return tel.Metrics.Meter(name, threshold, labels...)
}

// auditDetector attaches the audit trail to det for the named component.
// Hysteresis detectors log their full debounce state machine in place;
// anything else is wrapped in an Audited transition logger. With
// telemetry (or the audit flag) off, det is returned untouched.
func (tel *Telemetry) auditDetector(det detect.Detector, component string) detect.Detector {
	if tel == nil || tel.Audit == nil {
		return det
	}
	if h, ok := det.(*detect.Hysteresis); ok {
		h.EnableAudit(tel.Audit, component)
		return h
	}
	return detect.NewAudited(det, tel.Audit, component)
}

// pairRateInterval is the virtual-time sampling period for per-pair
// service-rate series.
const pairRateInterval = 0.25

// watchPairs samples each mirror pair's cumulative bytes every
// pairRateInterval of virtual time, recording per-pair service rates as
// "pair-rate" series labeled with the run and pair index. The sampling
// event keeps rescheduling itself until the run's s.Stop().
func (tel *Telemetry) watchPairs(s *sim.Simulator, a *raid.Array, run string) {
	if tel == nil || tel.Metrics == nil {
		return
	}
	pairs := a.Pairs()
	series := make([]*trace.Series, len(pairs))
	last := make([]float64, len(pairs))
	for i := range pairs {
		series[i] = tel.Metrics.Series("pair-rate",
			trace.L("run", run), trace.L("pair", fmt.Sprintf("%d", i)))
	}
	var tick func()
	tick = func() {
		now := s.Now()
		for i, p := range pairs {
			cur := p.A.BytesCompleted() + p.B.BytesCompleted()
			series[i].Add(now, (cur-last[i])/pairRateInterval)
			last[i] = cur
		}
		s.At(now+pairRateInterval, tick)
	}
	s.At(s.Now()+pairRateInterval, tick)
}

// runStriperT is runStriper with telemetry: the array's causal spans go
// to tel.Tracer, per-pair rates are sampled into tel.Metrics, and
// summary counters are recorded when the job completes. A nil tel is
// exactly runStriper.
func runStriperT(tel *Telemetry, name string, rates []float64, blocks int64,
	st raid.Striper, setup func(*sim.Simulator, *raid.Array)) raid.Result {
	if tel == nil {
		return runStriper(rates, blocks, st, setup)
	}
	s := sim.New()
	a := buildArray(s, rates)
	if setup != nil {
		setup(s, a)
	}
	run := tel.nextRun(name)
	a.SetTracer(tel.Tracer)
	tel.attachProfile(s, run)
	tel.watchPairs(s, a, run)
	res, err := raid.WriteAndMeasure(s, a, st, blocks)
	if err != nil {
		panic(fmt.Sprintf("experiments: striper run failed: %v", err))
	}
	tel.endRun(s)
	if tel.Metrics != nil {
		tel.Metrics.Counter("blocks", trace.L("run", run)).Add(uint64(res.Blocks))
		tel.Metrics.Counter("reissued", trace.L("run", run)).Add(uint64(res.Reissued))
		tel.Metrics.Counter("bookkeeping", trace.L("run", run)).Add(uint64(res.Bookkeeping))
	}
	return res
}
