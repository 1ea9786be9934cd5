package experiments

import (
	"fmt"
	"sort"

	"failstutter/internal/device"
	"failstutter/internal/faults"
	"failstutter/internal/sim"
	"failstutter/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E27",
		Title: "Non-deterministic run times on one processor",
		PaperClaim: "a program, executed twice on the same processor under " +
			"identical conditions, has run times that vary by up to a factor " +
			"of three (Kushman's UltraSPARC study, Section 2.1.1)",
		Run: runE27,
	})
	register(Experiment{
		ID:    "E28",
		Title: "Repeated-measurement variance under background interference",
		PaperClaim: "typically a cluster of measurements gave near-peak " +
			"results, while the other measurements were spread relatively " +
			"widely down to as low as 15-20% of peak performance (Vesta, " +
			"Section 2.1.2)",
		Run: runE28,
	})
}

func runE27(cfg Config) *Table {
	trials := int(scale(cfg, 200, 2000))
	t := NewTable("E27", "Non-deterministic run times",
		"identical executions vary up to 3x from predictor-state pathologies",
		"statistic", "run-time multiplier")
	pred := device.FetchPredictor{PathologyRange: 3}
	rng := sim.NewRNG(cfg.Seed).Fork("e27")
	factors := make([]float64, trials)
	for i := range factors {
		factors[i] = pred.RunFactor(rng.Float64())
	}
	sort.Float64s(factors)
	// Already sorted: read the quantiles straight off rather than paying
	// stats.Quantile's copy-and-resort.
	med := stats.QuantileSorted(factors, 0.5)
	p95 := stats.QuantileSorted(factors, 0.95)
	worst := factors[len(factors)-1]
	t.AddRow("median", fmt.Sprintf("%.2fx", med))
	t.AddRow("95th percentile", fmt.Sprintf("%.2fx", p95))
	t.AddRow("worst observed", fmt.Sprintf("%.2fx", worst))
	t.SetMetric("median", med)
	t.SetMetric("p95", p95)
	t.SetMetric("worst", worst)
	t.AddNote("%d executions of one binary on one simulated UltraSPARC; most runs sit near 1x, the tail reaches the pathological alignments", trials)
	return t
}

func runE28(cfg Config) *Table {
	trials := int(scale(cfg, 30, 120))
	t := NewTable("E28", "Repeated-measurement variance",
		"a cluster of near-peak measurements plus a wide low tail",
		"statistic", "fraction of peak")
	rng := sim.NewRNG(cfg.Seed).Fork("e28")
	const bytesPerTrial = 8e6
	measure := func(interfere bool) float64 {
		s := sim.New()
		srv := sim.NewStation(s, "fileserver", 5.5e6)
		if interfere {
			// An unlucky trial shares the server with co-scheduled load:
			// one or two interference bursts of random depth and length.
			comp := faults.NewComposite(srv)
			bursts := 1 + rng.Intn(3)
			for b := 0; b < bursts; b++ {
				start := rng.Uniform(0, 1.2)
				length := rng.Uniform(0.5, 3.0)
				depth := rng.Uniform(0.02, 0.35)
				faults.Interval{Start: start, End: start + length, Factor: depth}.Install(s, comp)
			}
		}
		var makespan float64
		srv.Submit(&sim.Request{Size: bytesPerTrial, OnDone: func(r *sim.Request) {
			makespan = r.Latency()
			s.Stop()
		}})
		s.Run()
		return bytesPerTrial / makespan
	}
	peak := measure(false)
	fracs := make([]float64, trials)
	for i := range fracs {
		// The Vesta pattern: most trials run unloaded, a minority collide
		// with background activity.
		interfere := rng.Float64() < 0.35
		fracs[i] = measure(interfere) / peak
	}
	sort.Float64s(fracs)
	nearPeak := 0
	for _, f := range fracs {
		if f > 0.9 {
			nearPeak++
		}
	}
	medianFrac := stats.QuantileSorted(fracs, 0.5) // fracs is already sorted
	t.AddRow("best", fmt.Sprintf("%.0f%%", fracs[len(fracs)-1]*100))
	t.AddRow("median", fmt.Sprintf("%.0f%%", medianFrac*100))
	t.AddRow("worst", fmt.Sprintf("%.0f%%", fracs[0]*100))
	t.AddRow("trials above 90% of peak", fmt.Sprintf("%d of %d", nearPeak, trials))
	t.SetMetric("best_frac", fracs[len(fracs)-1])
	t.SetMetric("median_frac", medianFrac)
	t.SetMetric("worst_frac", fracs[0])
	t.SetMetric("near_peak_count", float64(nearPeak))
	t.AddNote("each trial times an identical %0.f MB read; interference bursts model co-scheduled cluster load", bytesPerTrial/1e6)
	return t
}
