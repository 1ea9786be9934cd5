package profile

import (
	"bufio"
	"fmt"
	"io"
)

// BarrierSchema identifies the barrier cost report format.
const BarrierSchema = "fstutter-barrier/1"

// BarrierRun is one sharded-kernel run's barrier cost profile: how many
// safe windows the run took, how much work they held, and how evenly it
// spread. Everything here is
// byte-deterministic for a fixed seed and shard count except the two
// nanosecond fields, which are wall-clock and excluded from the JSON
// artifact.
type BarrierRun struct {
	// Run labels the sub-run within its experiment ("gc-adaptive",
	// "fleet-2048", "reissue-x3").
	Run string
	// Shards is the kernel's shard count.
	Shards int
	// Windows is the number of safe windows the run executed; Fired is
	// the events executed inside them.
	Windows uint64
	Fired   uint64
	// Delivered is the number of cross-shard events carried over a
	// barrier. The kernel's shards exchange no events, so it reads 0; it
	// stays so the fstutter-barrier/1 schema keeps its fields.
	Delivered uint64
	// SoloWindows counts windows in which at most one shard had eligible
	// work — windows with zero parallelism to harvest.
	SoloWindows uint64
	// MaxWindowFired is the largest single-window event count.
	MaxWindowFired uint64
	// PerShardFired is each shard's executed-event count — the imbalance
	// axis: a shard far above the mean is the parallel region's critical
	// path.
	PerShardFired []uint64
	// WindowNanos and BarrierNanos split the run's wall-clock between
	// the parallel window region and the single-threaded barrier.
	// DeliverNanos and SweepNanos split BarrierNanos further: the
	// cross-shard merge wall, which reads 0 like Delivered, versus the
	// barrier hook (the sweep wall — for the fleet, the parallel PeerSet
	// sweep). Wall-clock: nondeterministic, text report only.
	WindowNanos  int64
	BarrierNanos int64
	DeliverNanos int64
	SweepNanos   int64
}

// EventsPerWindow is the mean window payload — the quantity the batched
// delivery protocol exists to amortize the barrier handshake over.
func (r *BarrierRun) EventsPerWindow() float64 {
	if r.Windows == 0 {
		return 0
	}
	return float64(r.Fired) / float64(r.Windows)
}

// CrossShardFrac is the fraction of executed events that arrived over a
// barrier from another shard.
func (r *BarrierRun) CrossShardFrac() float64 {
	if r.Fired == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Fired)
}

// Imbalance is the hottest shard's event count over the per-shard mean:
// 1.0 is perfectly even, N means one shard did N times its fair share.
func (r *BarrierRun) Imbalance() float64 {
	if r.Fired == 0 || len(r.PerShardFired) == 0 {
		return 0
	}
	var max uint64
	for _, f := range r.PerShardFired {
		if f > max {
			max = f
		}
	}
	mean := float64(r.Fired) / float64(len(r.PerShardFired))
	if mean == 0 {
		return 0
	}
	return float64(max) / mean
}

// BarrierFrac is the single-threaded barrier's share of the measured
// wall-clock; zero when the run carried no timing.
func (r *BarrierRun) BarrierFrac() float64 {
	total := r.WindowNanos + r.BarrierNanos
	if total == 0 {
		return 0
	}
	return float64(r.BarrierNanos) / float64(total)
}

// DeliverFrac is the cross-shard merge wall's share of the barrier time;
// SweepFrac is the barrier hook's (the fleet sweep's). Zero when the run
// predates the split or carried no timing.
func (r *BarrierRun) DeliverFrac() float64 {
	if r.BarrierNanos == 0 {
		return 0
	}
	return float64(r.DeliverNanos) / float64(r.BarrierNanos)
}

// SweepFrac is the barrier hook's share of the barrier wall-clock.
func (r *BarrierRun) SweepFrac() float64 {
	if r.BarrierNanos == 0 {
		return 0
	}
	return float64(r.SweepNanos) / float64(r.BarrierNanos)
}

// BarrierReport is one experiment's barrier cost profile across its
// sub-runs: the per-run answer to "what did the conservative barrier
// cost, and was there parallelism to pay for it?".
type BarrierReport struct {
	Experiment string
	// Meta stamps the run identity (seed, scale, parallelism) into the
	// artifact header; the zero value writes seed 0 and omits the
	// parallelism fields.
	Meta RunMeta
	Runs []BarrierRun
}

// WriteJSON writes the deterministic fields in canonical form — runs in
// execution order, wall-clock nanoseconds omitted — so the artifact
// diffs cleanly across commits.
func (r *BarrierReport) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"schema":`)
	jstr(bw, BarrierSchema)
	r.Meta.writeHeader(bw)
	bw.WriteString(`,"experiment":`)
	jstr(bw, r.Experiment)
	bw.WriteString(`,"runs":[`)
	for i := range r.Runs {
		run := &r.Runs[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n")
		bw.WriteString(`{"run":`)
		jstr(bw, run.Run)
		bw.WriteString(`,"shards":`)
		jint(bw, int64(run.Shards))
		bw.WriteString(`,"windows":`)
		jint(bw, int64(run.Windows))
		bw.WriteString(`,"fired":`)
		jint(bw, int64(run.Fired))
		bw.WriteString(`,"delivered":`)
		jint(bw, int64(run.Delivered))
		bw.WriteString(`,"solo_windows":`)
		jint(bw, int64(run.SoloWindows))
		bw.WriteString(`,"max_window_fired":`)
		jint(bw, int64(run.MaxWindowFired))
		bw.WriteString(`,"events_per_window":`)
		jnum(bw, run.EventsPerWindow())
		bw.WriteString(`,"cross_shard_frac":`)
		jnum(bw, run.CrossShardFrac())
		bw.WriteString(`,"imbalance":`)
		jnum(bw, run.Imbalance())
		bw.WriteString(`,"per_shard_fired":[`)
		for j, f := range run.PerShardFired {
			if j > 0 {
				bw.WriteByte(',')
			}
			jint(bw, int64(f))
		}
		bw.WriteString(`]}`)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// WriteText renders the report as an aligned table, including the
// wall-clock window/barrier split (nondeterministic — stdout only,
// never a committed artifact).
func (r *BarrierReport) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "barrier profile: %s\n", r.Experiment)
	fmt.Fprintf(bw, "  %-24s %6s %9s %9s %6s %6s %6s %9s %7s %7s\n",
		"run", "shards", "windows", "ev/win", "xshard", "imbal", "solo", "barrier%", "merge%", "sweep%")
	for i := range r.Runs {
		run := &r.Runs[i]
		solo := 0.0
		if run.Windows > 0 {
			solo = float64(run.SoloWindows) / float64(run.Windows)
		}
		barrier, merge, sweep := "-", "-", "-"
		if run.WindowNanos+run.BarrierNanos > 0 {
			barrier = fmt.Sprintf("%.1f%%", 100*run.BarrierFrac())
		}
		// merge% and sweep% are shares *of the barrier wall*, not of the
		// whole run: together they show which half of the handshake —
		// cross-shard delivery or the hook's fleet sweep — the barrier
		// spends its time in.
		if run.BarrierNanos > 0 {
			merge = fmt.Sprintf("%.1f%%", 100*run.DeliverFrac())
			sweep = fmt.Sprintf("%.1f%%", 100*run.SweepFrac())
		}
		fmt.Fprintf(bw, "  %-24s %6d %9d %9.1f %5.1f%% %6.2f %5.0f%% %9s %7s %7s\n",
			run.Run, run.Shards, run.Windows, run.EventsPerWindow(),
			100*run.CrossShardFrac(), run.Imbalance(), 100*solo, barrier, merge, sweep)
	}
	return bw.Flush()
}
