package experiments

import (
	"fmt"
	"math"
	"strings"

	"failstutter/internal/core"
	"failstutter/internal/detect"
	"failstutter/internal/faults"
	"failstutter/internal/sim"
	"failstutter/internal/spec"
	"failstutter/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "Promotion threshold T: performance fault vs absolute fault",
		PaperClaim: "if the disk request takes longer than T seconds to " +
			"service, consider it absolutely failed; performance faults fill " +
			"in the rest of the regime (Section 3.1)",
		Run: runE18,
	})
	register(Experiment{
		ID:    "E19",
		Title: "Notification policy: every blip vs persistent state",
		PaperClaim: "erratic performance may occur quite frequently, and thus " +
			"distributing that information may be overly expensive; export " +
			"state for persistently faulty components (Section 3.1)",
		Run: runE19,
	})
	register(Experiment{
		ID:    "E20",
		Title: "Availability under a single performance fault",
		PaperClaim: "a system that only utilizes the fail-stop model is likely " +
			"to deliver poor performance under even a single performance " +
			"failure; handling them keeps availability high (Section 3.3)",
		Run: runE20,
	})
	register(Experiment{
		ID:    "E22",
		Title: "Stutter as an early indicator of impending failure",
		PaperClaim: "erratic performance may be an early indicator of " +
			"impending failure (Section 3.3, reliability)",
		Run: runE22,
	})
	register(Experiment{
		ID:    "A1",
		Title: "Ablation: detector parameters vs lag and false positives",
		PaperClaim: "the designer must have a good model of how often " +
			"performance faults occur and how long they last (Section 3.1)",
		Run: runA1,
	})
	register(Experiment{
		ID:    "A3",
		Title: "Ablation: peer-relative vs absolute-spec detection",
		PaperClaim: "a performance failure from the perspective of one " +
			"component may not manifest itself to others (Section 3.1)",
		Run: runA3,
	})
}

// saturated builds a station kept permanently busy, returning a work
// counter for probing. Requests are 0.01 s of nominal work: coarse
// requests quantize the sampled rate into plateaus that hide gradual
// drift from slope-based detectors. One request is resubmitted from its
// own completion, so the loop allocates nothing per chunk.
func saturated(s *sim.Simulator, name string, rate float64) (*sim.Station, func() float64) {
	st := sim.NewStation(s, name, rate)
	chunk := rate / 100
	req := &sim.Request{Size: chunk, OnDone: st.Submit}
	st.Submit(req)
	return st, func() float64 { return float64(st.Completed()) * chunk }
}

func runE18(cfg Config) *Table {
	t := NewTable("E18", "Promotion threshold T",
		"stalls shorter than T remain performance faults; longer stalls promote to absolute",
		"stall length", "T=5s", "T=15s", "T=40s")
	tel := cfg.telemetry()
	t.Telemetry = tel
	stalls := []float64{2, 10, 30, math.Inf(1)} // Inf = never recovers
	thresholds := []float64{5, 15, 40}
	for _, stall := range stalls {
		label := fmt.Sprintf("%.0f s", stall)
		if math.IsInf(stall, 1) {
			label = "never recovers"
		}
		row := []string{label}
		for _, T := range thresholds {
			s := sim.New()
			st, counter := saturated(s, "d0", 100)
			// Stall at t=30 for the given length.
			s.At(30, func() { st.SetMultiplier(0) })
			if !math.IsInf(stall, 1) {
				s.At(30+stall, func() { st.SetMultiplier(1) })
			}
			det := tel.auditDetector(detect.NewSpecDetector(spec.Spec{
				ExpectedRate: 100, Tolerance: 0.3, PromotionTimeout: T,
			}), fmt.Sprintf("d0/stall=%v,T=%v", stall, T))
			promoted := false
			detect.NewProbe(s, 1, counter, func(now, rate float64) {
				det.Observe(now, rate)
				if det.Verdict(now) == spec.AbsoluteFaulty {
					promoted = true
				}
			})
			s.RunUntil(120)
			verdict := "perf-fault, recovered"
			if promoted {
				verdict = "promoted to absolute"
			}
			row = append(row, verdict)
			key := fmt.Sprintf("promoted_stall%v_T%v", stall, T)
			v := 0.0
			if promoted {
				v = 1
			}
			t.SetMetric(key, v)
		}
		t.AddRow(row...)
	}
	t.AddNote("ground truth: finite stalls are transient (promotion wastes a working component); 'never recovers' is dead (failing to promote strands its work)")
	return t
}

func runE19(cfg Config) *Table {
	horizon := float64(scale(cfg, 300, 3000))
	t := NewTable("E19", "Notification policy",
		"publishing every blip floods the system; persistent-only stays quiet",
		"blip period", "notify-every msgs", "notify-persistent msgs")
	tel := cfg.telemetry()
	t.Telemetry = tel
	for _, period := range []float64{4, 8, 16, 32} {
		counts := make(map[core.NotifyPolicy]uint64)
		for _, policy := range []core.NotifyPolicy{core.NotifyEvery, core.NotifyPersistent} {
			s := sim.New()
			ctl := core.NewController(s)
			st, counter := saturated(s, "d0", 100)
			id := fmt.Sprintf("d0/period=%.0f,policy=%s", period, policy)
			cfg19 := core.AttachConfig{
				Interval: 1,
				Detector: detect.NewSpecDetector(spec.Spec{ExpectedRate: 100, Tolerance: 0.3}),
				Policy:   policy,
			}
			if tel != nil {
				cfg19.Audit = tel.Audit
				cfg19.Metrics = tel.Metrics
				cfg19.MetricsLabels = []trace.Label{trace.L("experiment", "E19")}
			}
			ctl.Watch(id, counter, cfg19)
			// One bad sample every `period` seconds: transient blips.
			faults.PeriodicStall{Period: period, Duration: 1, Factor: 0.1, Until: horizon}.
				Install(s, faults.NewComposite(st))
			s.RunUntil(horizon)
			counts[policy] = ctl.Registry().Notifications()
		}
		t.AddRow(fmt.Sprintf("%.0f s", period),
			fmt.Sprintf("%d", counts[core.NotifyEvery]),
			fmt.Sprintf("%d", counts[core.NotifyPersistent]))
		t.SetMetric(fmt.Sprintf("every_p%.0f", period), float64(counts[core.NotifyEvery]))
		t.SetMetric(fmt.Sprintf("persistent_p%.0f", period), float64(counts[core.NotifyPersistent]))
	}
	// A genuinely persistent fault must still be published promptly.
	s := sim.New()
	ctl := core.NewController(s)
	st, counter := saturated(s, "d0", 100)
	cfg19 := core.AttachConfig{
		Interval: 1,
		Detector: detect.NewSpecDetector(spec.Spec{ExpectedRate: 100, Tolerance: 0.3}),
		Policy:   core.NotifyPersistent,
	}
	if tel != nil {
		cfg19.Audit = tel.Audit
		cfg19.Metrics = tel.Metrics
		cfg19.MetricsLabels = []trace.Label{trace.L("experiment", "E19")}
	}
	ctl.Watch("d0/persistent-onset", counter, cfg19)
	s.At(50, func() { st.SetMultiplier(0.2) })
	var publishedAt float64 = -1
	ctl.Registry().Subscribe(func(e detect.Event) {
		if e.To == spec.PerfFaulty && publishedAt < 0 {
			publishedAt = e.At
		}
	})
	s.RunUntil(100)
	t.SetMetric("persistent_detect_delay", publishedAt-50)
	t.AddNote("persistent policy still publishes a real fault %.0f s after onset", publishedAt-50)
	return t
}

// dispatcher policies for E20.
type dispatchPolicy int

const (
	roundRobin dispatchPolicy = iota
	leastQueue
)

func runE20(cfg Config) *Table {
	count := int(scale(cfg, 2000, 20000))
	t := NewTable("E20", "Availability (Gray & Reuter)",
		"fraction of offered load with acceptable response time, one server stuttering",
		"dispatch design", "availability", "p99 response")
	tel := cfg.telemetry()
	t.Telemetry = tel
	run := func(policy dispatchPolicy, name string) (float64, float64) {
		s := sim.New()
		servers := make([]*sim.Station, 4)
		for i := range servers {
			servers[i] = sim.NewStation(s, fmt.Sprintf("srv-%d", i), 100)
			if tel != nil {
				servers[i].SetTracer(tel.Tracer)
			}
		}
		// Server 0 degrades to 10% for the middle half of the run.
		startT := float64(count) * 0.01 * 0.25
		endT := float64(count) * 0.01 * 0.75
		s.At(startT, func() { servers[0].SetMultiplier(0.1) })
		s.At(endT, func() { servers[0].SetMultiplier(1) })

		meter := tel.meter("dispatch", 0.5, trace.L("policy", name))
		// Completed requests go back to free and carry later arrivals.
		var free sim.FreeRequests
		completed := func(r *sim.Request) {
			free.Put(r)
			meter.Completed(r.Latency())
		}
		next := 0
		for i := 0; i < count; i++ {
			at := float64(i) * 0.01 // 100 req/s offered over 4 servers
			s.At(at, func() {
				meter.Offered()
				var target *sim.Station
				switch policy {
				case roundRobin:
					target = servers[next%len(servers)]
					next++
				case leastQueue:
					target = servers[0]
					best := target.QueueLen()
					if target.InService() != nil {
						best++
					}
					for _, srv := range servers[1:] {
						q := srv.QueueLen()
						if srv.InService() != nil {
							q++
						}
						if q < best {
							best = q
							target = srv
						}
					}
				}
				r := free.Take()
				r.Size, r.OnDone = 1, completed // 10 ms nominal service
				target.Submit(r)
			})
		}
		s.Run()
		tel.endRun(s)
		return meter.Availability(), meter.Latency().Quantile(0.99)
	}
	availRR, p99RR := run(roundRobin, "round-robin")
	availLQ, p99LQ := run(leastQueue, "least-queue")
	t.AddRow("round-robin (fail-stop design)", fmt.Sprintf("%.1f%%", availRR*100), fmt.Sprintf("%.2f s", p99RR))
	t.AddRow("least-queue (fail-stutter design)", fmt.Sprintf("%.1f%%", availLQ*100), fmt.Sprintf("%.2f s", p99LQ))
	t.SetMetric("availability_failstop", availRR)
	t.SetMetric("availability_failstutter", availLQ)
	t.AddNote("identical offered load and fault schedule; only the dispatch design differs")
	return t
}

func runE22(cfg Config) *Table {
	t := NewTable("E22", "Failure prediction from stutter",
		"performance decline precedes death; detection yields replacement lead time",
		"drift duration", "detector", "flagged", "crash at", "lead time")
	tel := cfg.telemetry()
	t.Telemetry = tel
	detectors := []struct {
		name string
		mk   func() detect.Detector
	}{
		{"ewma", func() detect.Detector {
			return detect.NewHysteresis(detect.NewEWMADetector(detect.EWMAConfig{
				FastAlpha: 0.4, SlowAlpha: 0.02, Threshold: 0.75,
			}), 3, 3)
		}},
		{"trend", func() detect.Detector {
			return detect.NewTrendDetector(detect.TrendConfig{
				WindowSamples: 20, DeclineFrac: 0.1,
			})
		}},
	}
	for _, driftLen := range []float64{20, 60, 180} {
		for _, dd := range detectors {
			s := sim.New()
			st, counter := saturated(s, "dying", 100)
			comp := faults.NewComposite(st)
			crashAt := 50 + driftLen
			faults.LinearDrift{Start: 50, End: crashAt, From: 1, To: 0.25, Steps: 40}.Install(s, comp)
			faults.CrashAt{At: crashAt}.Install(s, comp)
			det := tel.auditDetector(dd.mk(), fmt.Sprintf("dying/%s,drift=%.0fs", dd.name, driftLen))
			flaggedAt := -1.0
			detect.NewProbe(s, 1, counter, func(now, rate float64) {
				det.Observe(now, rate)
				if flaggedAt < 0 && det.Verdict(now) == spec.PerfFaulty {
					flaggedAt = now
				}
			})
			s.RunUntil(crashAt + 10)
			lead := crashAt - flaggedAt
			t.AddRow(fmt.Sprintf("%.0f s", driftLen), dd.name,
				fmt.Sprintf("t=%.0f s", flaggedAt),
				fmt.Sprintf("t=%.0f s", crashAt),
				fmt.Sprintf("%.0f s", lead))
			if dd.name == "ewma" {
				t.SetMetric(fmt.Sprintf("lead_%v", driftLen), lead)
			} else {
				t.SetMetric(fmt.Sprintf("lead_trend_%v", driftLen), lead)
			}
		}
	}
	// Control: healthy-but-noisy component must not be flagged.
	s := sim.New()
	st, counter := saturated(s, "healthy", 100)
	faults.RandomWalk{
		Interval: 2, Sigma: 0.03, Min: 0.9, Max: 1.0,
		RNG: sim.NewRNG(cfg.Seed).Fork("e22"), Until: 300,
	}.Install(s, faults.NewComposite(st))
	det := tel.auditDetector(detect.NewHysteresis(detect.NewEWMADetector(detect.EWMAConfig{
		FastAlpha: 0.4, SlowAlpha: 0.02, Threshold: 0.75,
	}), 3, 3), "healthy/control")
	false1 := 0
	detect.NewProbe(s, 1, counter, func(now, rate float64) {
		det.Observe(now, rate)
		if det.Verdict(now) == spec.PerfFaulty {
			false1++
		}
	})
	s.RunUntil(300)
	t.SetMetric("false_positive_samples", float64(false1))
	t.AddNote("healthy component with +/-5%% noise: flagged on %d of 300 samples", false1)
	return t
}

// syntheticTrace feeds a detector a healthy segment, then (optionally) a
// degraded segment, and returns (lag until first PerfFaulty verdict after
// the step, false positives during the healthy segment).
func syntheticTrace(d detect.Detector, rng *sim.RNG, healthyN int, faultN int, faultLevel float64) (lag int, falsePos int) {
	now := 0.0
	lag = -1
	for i := 0; i < healthyN; i++ {
		d.Observe(now, 100*(1+rng.Norm(0, 0.05)))
		if d.Verdict(now) == spec.PerfFaulty {
			falsePos++
		}
		now++
	}
	for i := 0; i < faultN; i++ {
		d.Observe(now, 100*faultLevel*(1+rng.Norm(0, 0.05)))
		if lag < 0 && d.Verdict(now) == spec.PerfFaulty {
			lag = i + 1
		}
		now++
	}
	return lag, falsePos
}

func runA1(cfg Config) *Table {
	t := NewTable("A1", "Detector ablation",
		"reactive detectors catch faults sooner but fire on noise",
		"detector", "detection lag (samples)", "false positives / 400 healthy")
	tel := cfg.telemetry()
	t.Telemetry = tel
	rng := sim.NewRNG(cfg.Seed).Fork("a1")
	type entry struct {
		name string
		mk   func() detect.Detector
	}
	entries := []entry{
		{"ewma fast=0.8", func() detect.Detector {
			return detect.NewEWMADetector(detect.EWMAConfig{FastAlpha: 0.8, SlowAlpha: 0.02, Threshold: 0.7})
		}},
		{"ewma fast=0.4", func() detect.Detector {
			return detect.NewEWMADetector(detect.EWMAConfig{FastAlpha: 0.4, SlowAlpha: 0.02, Threshold: 0.7})
		}},
		{"ewma fast=0.1", func() detect.Detector {
			return detect.NewEWMADetector(detect.EWMAConfig{FastAlpha: 0.1, SlowAlpha: 0.02, Threshold: 0.7})
		}},
		{"window 5", func() detect.Detector {
			return detect.NewWindowDetector(detect.WindowConfig{BaselineSamples: 50, RecentSamples: 5, Threshold: 0.7})
		}},
		{"window 25", func() detect.Detector {
			return detect.NewWindowDetector(detect.WindowConfig{BaselineSamples: 50, RecentSamples: 25, Threshold: 0.7})
		}},
		{"spec tol=0.3 + hysteresis 3", func() detect.Detector {
			return detect.NewHysteresis(detect.NewSpecDetector(spec.Spec{ExpectedRate: 100, Tolerance: 0.3}), 3, 3)
		}},
		{"spec tol=0.05 (hair trigger)", func() detect.Detector {
			return detect.NewSpecDetector(spec.Spec{ExpectedRate: 100, Tolerance: 0.05})
		}},
	}
	for _, e := range entries {
		lag, _ := syntheticTrace(tel.auditDetector(e.mk(), e.name+"/fault"), rng.Fork(e.name+"-fault"), 400, 100, 0.4)
		_, falsePos := syntheticTrace(tel.auditDetector(e.mk(), e.name+"/healthy"), rng.Fork(e.name+"-healthy"), 400, 0, 1)
		lagStr := fmt.Sprintf("%d", lag)
		if lag < 0 {
			lagStr = "missed"
		}
		t.AddRow(e.name, lagStr, fmt.Sprintf("%d", falsePos))
		slug := strings.NewReplacer(" ", "-", "=", "").Replace(e.name)
		t.SetMetric("lag_"+slug, float64(lag))
		t.SetMetric("fp_"+slug, float64(falsePos))
	}
	t.AddNote("fault: step to 40%% of baseline with 5%% multiplicative noise")
	return t
}

func runA3(cfg Config) *Table {
	t := NewTable("A3", "Peer-relative vs absolute-spec detection",
		"fleet-wide shifts fool absolute specs; divergent components fool neither",
		"scenario", "absolute-spec flags", "peer-relative flags")
	const n = 8
	run := func(fleetShift bool) (absFlags, peerFlags int) {
		rng := sim.NewRNG(cfg.Seed).Fork(fmt.Sprintf("a3-%v", fleetShift))
		abs := make([]detect.Detector, n)
		for i := range abs {
			abs[i] = detect.NewSpecDetector(spec.Spec{ExpectedRate: 100, Tolerance: 0.3})
		}
		peers := detect.NewPeerSet(detect.PeerConfig{WindowSamples: 5, Threshold: 0.7, MinPeers: 3})
		now := 0.0
		for step := 0; step < 100; step++ {
			for i := 0; i < n; i++ {
				rate := 100 * (1 + rng.Norm(0, 0.03))
				if step >= 50 {
					if fleetShift {
						rate *= 0.5 // everyone slowed by a workload change
					} else if i == 0 {
						rate *= 0.3 // one divergent component
					}
				}
				abs[i].Observe(now, rate)
				peers.Observe(fmt.Sprintf("c%d", i), now, rate)
			}
			now++
		}
		for i := 0; i < n; i++ {
			if abs[i].Verdict(now) == spec.PerfFaulty {
				absFlags++
			}
			if peers.Verdict(fmt.Sprintf("c%d", i), now) == spec.PerfFaulty {
				peerFlags++
			}
		}
		return absFlags, peerFlags
	}
	absShift, peerShift := run(true)
	absSingle, peerSingle := run(false)
	t.AddRow("fleet-wide 50% shift (benign)", fmt.Sprintf("%d of %d", absShift, n), fmt.Sprintf("%d of %d", peerShift, n))
	t.AddRow("single component at 30%", fmt.Sprintf("%d of %d", absSingle, n), fmt.Sprintf("%d of %d", peerSingle, n))
	t.SetMetric("abs_fleet_flags", float64(absShift))
	t.SetMetric("peer_fleet_flags", float64(peerShift))
	t.SetMetric("abs_single_flags", float64(absSingle))
	t.SetMetric("peer_single_flags", float64(peerSingle))
	t.AddNote("the paper's point: a shared shift is not a component fault; peer comparison encodes that")
	return t
}
