package experiments

import (
	"fmt"

	"failstutter/internal/device"
	"failstutter/internal/faults"
	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E05",
		Title: "Bad-block remapping degrades 'identical' disks",
		PaperClaim: "most disks deliver 5.5 MB/s on sequential reads, but one " +
			"with 3x the block faults delivered only 5.0 MB/s — remappings " +
			"transparent to users and file systems (Section 2.1.2)",
		Run: runE05,
	})
	register(Experiment{
		ID:    "E06",
		Title: "SCSI timeouts and correlated bus resets",
		PaperClaim: "timeouts and parity errors are 49% of all errors (87% " +
			"excluding network), roughly two per day, and resets affect every " +
			"disk on the degraded chain (Section 2.1.2)",
		Run: runE06,
	})
	register(Experiment{
		ID:    "E07",
		Title: "Thermal recalibrations vs streaming deadlines",
		PaperClaim: "disks in the Tiger video server went off-line at random " +
			"intervals for short periods, apparently due to thermal " +
			"recalibrations (Section 2.1.2)",
		Run: runE07,
	})
	register(Experiment{
		ID:    "E08",
		Title: "Multi-zone geometry: 2x bandwidth across one disk",
		PaperClaim: "disks have multiple zones, with performance across zones " +
			"differing by up to a factor of two (Section 2.1.2)",
		Run: runE08,
	})
	register(Experiment{
		ID:    "E13",
		Title: "Aged file-system layout halves sequential reads",
		PaperClaim: "sequential file read performance across aged file systems " +
			"varies by up to a factor of two; recreated afresh, performance is " +
			"identical across all drives (Section 2.2.1)",
		Run: runE13,
	})
}

func runE05(cfg Config) *Table {
	blocks := scale(cfg, 20000, 200000)
	t := NewTable("E05", "Bad-block remapping",
		"5.5 MB/s healthy vs 5.0 MB/s with 3x block faults",
		"remapped blocks", "sequential read", "deficit")
	tel := cfg.telemetry()
	t.Telemetry = tel
	var healthyBW float64
	for i, remapFrac := range []float64{0, 0.004, 0.012, 0.04} {
		p := device.HawkParams(fmt.Sprintf("hawk-%d", i))
		p.RemappedBlocks = int64(remapFrac * float64(p.CapacityBlocks))
		p.RemapSeed = cfg.Seed + uint64(i)
		s := sim.New()
		d := device.MustDisk(s, p)
		if tel != nil {
			d.SetTracer(tel.Tracer)
			tel.attachProfile(s, tel.nextRun(p.Name))
		}
		bw := d.SequentialReadBandwidth(0, blocks)
		if tel != nil {
			tel.Metrics.Series("seq-read-bw", trace.L("disk", p.Name)).Add(0, bw)
			tel.endRun(s)
		}
		if i == 0 {
			healthyBW = bw
		}
		deficit := 1 - bw/healthyBW
		t.AddRow(fmt.Sprintf("%.1f%% of disk", remapFrac*100), mb(bw),
			fmt.Sprintf("%.1f%%", deficit*100))
		t.SetMetric(fmt.Sprintf("bw_%d", i), bw)
	}
	t.SetMetric("healthy_bw", healthyBW)
	t.AddNote("the paper's faulty drive: 3x baseline faults -> 9%% deficit (5.5 -> 5.0 MB/s)")
	return t
}

func runE06(cfg Config) *Table {
	// Part 1: error census over the study horizon. The farm study's error
	// mix: SCSI timeouts+parity 49% of all errors, network 44%, other 7%.
	days := scale(cfg, 14, 180)
	t := NewTable("E06", "SCSI timeouts and bus resets",
		"~2 timeout/parity errors per day; resets stall the whole chain",
		"quantity", "value")
	rng := sim.NewRNG(cfg.Seed).Fork("e06")
	horizon := float64(days) * 86400
	// Farm-wide timeout/parity arrivals at 2/day (the measured average).
	s := sim.New()
	scsiErrors := 0
	dummy := faults.NewComposite(noopTarget{})
	faults.PoissonStalls{
		MeanInterval: 43200, Duration: 2, RNG: rng.Fork("scsi"),
		Until:   horizon,
		OnStall: func(sim.Time) { scsiErrors++ },
	}.Install(s, dummy)
	s.RunUntil(horizon)
	// Synthesize the remaining error categories at the study's ratios:
	// for every 49 timeout/parity errors the farm logged ~44 network and
	// ~7 other errors.
	networkErrors := int(float64(scsiErrors)*44/49 + 0.5)
	otherErrors := int(float64(scsiErrors)*7/49 + 0.5)
	total := scsiErrors + networkErrors + otherErrors
	t.AddRow("study horizon", fmt.Sprintf("%d days", days))
	t.AddRow("SCSI timeout/parity errors", fmt.Sprintf("%d (%.1f/day)", scsiErrors, float64(scsiErrors)/float64(days)))
	t.AddRow("share of all errors", fmt.Sprintf("%.0f%%", 100*float64(scsiErrors)/float64(total)))
	t.AddRow("share excluding network", fmt.Sprintf("%.0f%%", 100*float64(scsiErrors)/float64(scsiErrors+otherErrors)))
	t.SetMetric("errors_per_day", float64(scsiErrors)/float64(days))
	t.SetMetric("share_all", float64(scsiErrors)/float64(total))
	t.SetMetric("share_no_network", float64(scsiErrors)/float64(scsiErrors+otherErrors))

	// Part 2: impact of correlated resets on one 8-disk chain streaming
	// for a day: every member stalls for each reset.
	s2 := sim.New()
	chainDisks := make([]*device.Disk, 8)
	comps := make([]*faults.Composite, 8)
	for i := range chainDisks {
		chainDisks[i] = flatDisk(s2, fmt.Sprintf("chain-%d", i), 5.5e6)
		comps[i] = chainDisks[i].Composite()
	}
	resets := 0
	faults.ChainResets{
		MeanInterval: 43200, Duration: 2, RNG: rng.Fork("chain"),
		Until:   86400,
		OnReset: func(sim.Time) { resets++ },
	}.InstallGroup(s2, comps)
	// Saturate each disk with large sequential reads.
	const chunk = 16384 // blocks per request (~64 MB)
	for _, d := range chainDisks {
		d := d
		var refill func(block int64)
		refill = func(block int64) {
			if block+chunk > d.Params().CapacityBlocks {
				block = 0
			}
			d.Read(block, chunk, func(float64) { refill(block + chunk) })
		}
		refill(0)
	}
	s2.RunUntil(86400)
	var delivered float64
	for _, d := range chainDisks {
		delivered += d.BytesCompleted()
	}
	idealBytes := 8 * 5.5e6 * 86400.0
	t.AddRow("chain resets in 1 day", fmt.Sprintf("%d", resets))
	t.AddRow("chain throughput vs ideal", fmt.Sprintf("%.3f%% lost", 100*(1-delivered/idealBytes)))
	t.SetMetric("resets_day", float64(resets))
	t.SetMetric("chain_loss_frac", 1-delivered/idealBytes)
	t.AddNote("each reset stalls all 8 disks for 2 s: correlated, chain-wide performance fault")
	return t
}

// noopTarget lets injectors run for pure event counting.
type noopTarget struct{}

func (noopTarget) SetMultiplier(float64) {}
func (noopTarget) Fail()                 {}

func runE07(cfg Config) *Table {
	t := NewTable("E07", "Thermal recalibration vs streaming deadlines",
		"random short off-line periods break unbuffered streams; buffering rides them out",
		"client buffer", "recal 0.5 s", "recal 1.5 s", "recal 3.0 s")
	tel := cfg.telemetry()
	t.Telemetry = tel
	seconds := scale(cfg, 300, 3600)
	for _, buffer := range []float64{0.5, 1, 2, 4} {
		row := []string{fmt.Sprintf("%.1f s", buffer)}
		for _, recal := range []float64{0.5, 1.5, 3.0} {
			s := sim.New()
			d := flatDisk(s, "video", 5.5e6)
			if tel != nil {
				d.SetTracer(tel.Tracer)
				tel.attachProfile(s, tel.nextRun(fmt.Sprintf("b%v-r%v", buffer, recal)))
			}
			faults.PeriodicStall{
				Period: 30, Duration: recal, Jitter: 5,
				RNG:   sim.NewRNG(cfg.Seed).Fork(fmt.Sprintf("recal-%v-%v", buffer, recal)),
				Until: float64(seconds) + 10,
			}.Install(s, d.Composite())
			meter := tel.meter("stream-deadline", buffer,
				trace.L("buffer", fmt.Sprintf("%.1fs", buffer)),
				trace.L("recal", fmt.Sprintf("%.1fs", recal)))
			// A 2 MB/s stream in 0.5 MB requests every 0.25 s. Each
			// arrival schedules the next, so the pending set holds one
			// arrival rather than the whole stream.
			n := int(float64(seconds) / 0.25)
			completed := meter.Completed
			i := 0
			var arrive func()
			arrive = func() {
				meter.Offered()
				d.Read(int64(i%1000)*128, 128, completed)
				if i++; i < n {
					s.At(float64(i)*0.25, arrive)
				}
			}
			if n > 0 {
				s.At(0, arrive)
			}
			s.Run()
			tel.endRun(s)
			miss := 1 - meter.Availability()
			row = append(row, fmt.Sprintf("%.2f%% missed", miss*100))
			t.SetMetric(fmt.Sprintf("miss_b%v_r%v", buffer, recal), miss)
		}
		t.AddRow(row...)
	}
	t.AddNote("deadline = client buffer depth; a recalibration longer than the buffer drops frames")
	return t
}

func runE08(cfg Config) *Table {
	blocks := scale(cfg, 20000, 100000)
	t := NewTable("E08", "Multi-zone geometry",
		"bandwidth differs up to 2x across zones of one disk",
		"zone", "position", "sequential read")
	p := device.DiskParams{
		Name:           "zoned",
		CapacityBlocks: 1 << 22,
		BlockBytes:     blockBytes,
		Zones: []device.Zone{
			{CapacityFrac: 0.3, Bandwidth: 10e6},
			{CapacityFrac: 0.4, Bandwidth: 7.5e6},
			{CapacityFrac: 0.3, Bandwidth: 5e6},
		},
		SeekTime:    0.002,
		AgingFactor: 1,
	}
	positions := []struct {
		name string
		frac float64
	}{
		{"outer", 0.0}, {"middle", 0.45}, {"inner", 0.75},
	}
	tel := cfg.telemetry()
	t.Telemetry = tel
	var outer, inner float64
	for _, pos := range positions {
		s := sim.New()
		d := device.MustDisk(s, p)
		if tel != nil {
			d.SetTracer(tel.Tracer)
			tel.attachProfile(s, tel.nextRun(pos.name))
		}
		start := int64(pos.frac * float64(p.CapacityBlocks))
		bw := d.SequentialReadBandwidth(start, int64(blocks))
		if tel != nil {
			tel.Metrics.Series("seq-read-bw", trace.L("zone", pos.name)).Add(0, bw)
			tel.endRun(s)
		}
		t.AddRow(pos.name, fmt.Sprintf("%.0f%% of capacity", pos.frac*100), mb(bw))
		t.SetMetric("bw_"+pos.name, bw)
		if pos.name == "outer" {
			outer = bw
		}
		if pos.name == "inner" {
			inner = bw
		}
	}
	t.SetMetric("zone_ratio", outer/inner)
	t.AddNote("outer/inner ratio = %.2f (paper: up to 2x)", outer/inner)
	return t
}

func runE13(cfg Config) *Table {
	blocks := scale(cfg, 20000, 100000)
	t := NewTable("E13", "Aged file-system layout",
		"aged layouts vary up to 2x; fresh layouts are identical",
		"drive", "layout", "sequential read")
	tel := cfg.telemetry()
	t.Telemetry = tel
	agings := []float64{1.0, 0.85, 0.65, 0.5}
	var fresh, worst float64
	for i, ag := range agings {
		p := device.HawkParams(fmt.Sprintf("aged-%d", i))
		p.AgingFactor = ag
		s := sim.New()
		d := device.MustDisk(s, p)
		if tel != nil {
			d.SetTracer(tel.Tracer)
			tel.attachProfile(s, tel.nextRun(p.Name))
		}
		bw := d.SequentialReadBandwidth(0, blocks)
		if tel != nil {
			tel.Metrics.Series("seq-read-bw", trace.L("disk", p.Name)).Add(0, bw)
			tel.endRun(s)
		}
		label := "aged"
		if ag == 1 {
			label = "fresh"
			fresh = bw
		}
		worst = bw
		t.AddRow(fmt.Sprintf("disk %d", i), label, mb(bw))
		t.SetMetric(fmt.Sprintf("bw_%d", i), bw)
	}
	t.SetMetric("age_ratio", fresh/worst)
	// Recreate afresh: all drives back to aging 1.0.
	var bws []float64
	for i := 0; i < len(agings); i++ {
		p := device.HawkParams(fmt.Sprintf("fresh-%d", i))
		d := device.MustDisk(sim.New(), p)
		bws = append(bws, d.SequentialReadBandwidth(0, blocks))
	}
	identical := true
	for _, bw := range bws[1:] {
		if relErr(bw, bws[0]) > 1e-9 {
			identical = false
		}
	}
	t.AddRow("all drives", "recreated afresh", mb(bws[0]))
	if identical {
		t.AddNote("after recreating file systems afresh, all drives measure identically")
		t.SetMetric("fresh_identical", 1)
	} else {
		t.SetMetric("fresh_identical", 0)
	}
	return t
}
