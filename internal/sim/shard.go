package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"failstutter/internal/trace"
)

// ShardedSimulator runs one simulation of independent components on all
// cores: components are partitioned into shard groups, each shard owning
// a full event kernel (its own arena, 4-ary heap and sequence counter),
// and the shards advance together through fixed-width safe windows.
//
// Shards never exchange events. Let T be the earliest pending event time
// across all shards and L the lookahead, the window width: each window
// runs every shard in parallel up to the horizon H = T+L, then the
// barrier hook runs single-threaded at H and the next window begins. The
// lookahead is therefore just the barrier period; a fleet that sweeps
// its components once per virtual tick sets it to the tick.
//
// Determinism is by construction, at any shard count:
//
//   - each shard's events execute in (time, seq) order exactly as a
//     lone Simulator would execute them;
//   - the window horizon sequence depends only on the global event set
//     (the minimum next-event time is the same however components are
//     sharded), so barrier-driven logic fires identically at any shard
//     count.
//
// For results to be byte-identical across *different* shard counts, the
// usual kernel discipline applies, plus one rule: every component draws
// from its own RNG stream forked by component identity (the repository
// idiom), and same-timestamp events on *different* components must
// commute (their relative order is the one ordering that legitimately
// varies with the partition).
//
// A panic in a shard's event does not kill the process from the window
// goroutine: it is recovered there and re-raised on the coordinator once
// every shard has finished the window, naming the shard and the horizon.
type ShardedSimulator struct {
	shards    []*Simulator
	lookahead Duration

	// barrier, when non-nil, runs single-threaded after every window with
	// the window horizon. Fleet-wide logic (peer detectors sweeping
	// samples gathered shard-locally) hangs off this hook; it may inspect
	// any shard and schedule new events at or after the horizon.
	barrier func(horizon Time)

	// inWindow marks the parallel section, in which barrier-only calls
	// must not run.
	inWindow bool

	// failed[i] records a panic recovered from shard i's window goroutine
	// until the coordinator re-raises it.
	failed []string

	// prof, when non-nil, accumulates barrier cost statistics.
	prof *BarrierStats

	// barrierWorkers and pool hold the reusable barrier worker pool
	// (BarrierPool), which fleet-wide barrier hooks fan sweeps across.
	barrierWorkers int
	pool           *WorkerPool

	// traceSink and tracers, when non-nil, are the destination tracer and
	// the per-shard collectors installed by SetTelemetry and folded into
	// the sink by MergeTelemetry.
	traceSink *trace.Tracer
	tracers   []*trace.Tracer
}

// NewSharded builds a simulator partitioned into the given number of
// shards with the given lookahead, the width of every safe window. A
// shard count of 1 degenerates to a windowed — but otherwise identical —
// serial simulation, which is the baseline the determinism suite
// compares against. The lookahead must be positive and finite.
func NewSharded(shards int, lookahead Duration) *ShardedSimulator {
	if shards < 1 {
		panic(fmt.Sprintf("sim: sharded simulator needs at least 1 shard, got %d", shards))
	}
	if !(lookahead > 0) || math.IsInf(lookahead, 0) {
		panic(fmt.Sprintf("sim: sharded simulator needs a positive finite lookahead, got %v", lookahead))
	}
	ss := &ShardedSimulator{
		shards:    make([]*Simulator, shards),
		lookahead: lookahead,
		failed:    make([]string, shards),
	}
	for i := range ss.shards {
		ss.shards[i] = New()
	}
	return ss
}

// Shard returns shard i's kernel. Components pinned to shard i are built
// on it exactly as they would be on a lone Simulator; during a window,
// shard i's events must touch only state owned by shard i.
func (ss *ShardedSimulator) Shard(i int) *Simulator { return ss.shards[i] }

// ShardFor assigns a component key to a shard by a stable FNV-1a hash of
// the identity — never of execution order, so a component lands on the
// same shard in every run at a given shard count.
func (ss *ShardedSimulator) ShardFor(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(len(ss.shards)))
}

// SetBarrier installs (or, with nil, removes) the hook run single-threaded
// after every safe window with the window's horizon. All events before the
// horizon have executed on every shard when it runs, so it is the natural
// home for fleet-wide logic that must observe a consistent cut: it may
// read any shard's components and schedule follow-up events at or after
// the horizon.
func (ss *ShardedSimulator) SetBarrier(fn func(horizon Time)) { ss.barrier = fn }

// Now returns the committed global virtual time: the minimum of the shard
// clocks. Individual shards may be ahead within the current window.
func (ss *ShardedSimulator) Now() Time {
	t := ss.shards[0].now
	for _, s := range ss.shards[1:] {
		if s.now < t {
			t = s.now
		}
	}
	return t
}

// EventsFired returns the total events executed across all shards: the
// kernel fires exactly what was scheduled, at any shard count. Callers
// that schedule per-shard bookkeeping events (e.g. one sampler chain per
// shard) must subtract them before reporting a shard-invariant figure, as
// the fleet experiment does.
func (ss *ShardedSimulator) EventsFired() uint64 {
	var n uint64
	for _, s := range ss.shards {
		n += s.fired
	}
	return n
}

// Pending returns the number of live events queued across all shards.
func (ss *ShardedSimulator) Pending() int {
	n := 0
	for _, s := range ss.shards {
		n += len(s.heap)
	}
	return n
}

// nextTime returns the earliest pending event time across shards, or +Inf
// when everything is drained.
func (ss *ShardedSimulator) nextTime() Time {
	t := math.Inf(1)
	for _, s := range ss.shards {
		if at := s.nextAt(); at < t {
			t = at
		}
	}
	return t
}

// Run executes safe windows until every shard's queue drains.
func (ss *ShardedSimulator) Run() { ss.RunUntil(math.Inf(1)) }

// RunUntil executes all events scheduled at or before limit, window by
// window, then advances every shard clock to exactly limit (when finite).
// Events scheduled after limit remain queued, exactly as Simulator.RunUntil
// leaves them.
func (ss *ShardedSimulator) RunUntil(limit Time) {
	prof := ss.prof
	for {
		t := ss.nextTime()
		if t > limit || math.IsInf(t, 1) {
			break
		}
		h := t + ss.lookahead
		var wall time.Time
		var fired0 uint64
		if prof != nil {
			wall = time.Now()
			fired0 = ss.EventsFired()
		}
		active := ss.runOneWindow(h, limit)
		if prof != nil {
			mid := time.Now()
			prof.WindowNanos += mid.Sub(wall).Nanoseconds()
			prof.Windows++
			if active <= 1 {
				prof.SoloWindows++
			}
			df := ss.EventsFired() - fired0
			prof.Fired += df
			if df > prof.MaxWindowFired {
				prof.MaxWindowFired = df
			}
			wall = mid
		}
		if ss.barrier != nil {
			ss.barrier(h)
		}
		if prof != nil {
			d := time.Since(wall).Nanoseconds()
			prof.SweepNanos += d
			prof.BarrierNanos += d
		}
	}
	if !math.IsInf(limit, 1) {
		for _, s := range ss.shards {
			if s.now < limit {
				s.now = limit
			}
		}
	}
}

// runOneWindow executes every shard's events in [now, h) ∩ [0, limit] —
// in parallel when more than one shard has eligible work, inline
// otherwise, so a single-shard configuration never pays goroutine
// overhead. It returns the number of shards that had eligible work. A
// shard whose event panics is recorded; once every shard has finished,
// the lowest-index failure (with any others after it) is re-raised here,
// on the coordinator.
func (ss *ShardedSimulator) runOneWindow(h, limit Time) int {
	ss.inWindow = true
	active, only := 0, 0
	for i, s := range ss.shards {
		if at := s.nextAt(); at < h && at <= limit {
			active++
			only = i
		}
	}
	switch {
	case active == 1:
		ss.runShard(only, h, limit)
	case active > 1:
		var wg sync.WaitGroup
		for i, s := range ss.shards {
			if at := s.nextAt(); !(at < h && at <= limit) {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ss.runShard(i, h, limit)
			}(i)
		}
		wg.Wait()
	}
	ss.inWindow = false
	raise(ss.failed)
	return active
}

// runShard runs shard i's part of the window, recording a panic in
// ss.failed[i] instead of letting it unwind the window goroutine.
func (ss *ShardedSimulator) runShard(i int, h, limit Time) {
	defer func() {
		if r := recover(); r != nil {
			ss.failed[i] = recovered(fmt.Sprintf("sim: shard %d window to %v", i, h), r)
		}
	}()
	ss.shards[i].runWindow(h, limit)
}

// BarrierStats accumulates the cost profile of the sharded run: how many
// safe windows executed, how much work each held, and — wall-clock, so
// nondeterministic and excluded from deterministic artifacts — where the
// time went. Enable with Profile.
type BarrierStats struct {
	// Windows is the number of safe windows executed.
	Windows uint64
	// Fired is the number of events executed inside windows.
	Fired uint64
	// Delivered always reads 0: shards exchange no events. The field is
	// kept for readers of the profile that still report it.
	Delivered uint64
	// SoloWindows counts windows in which at most one shard had eligible
	// work — windows that ran inline, with zero parallelism to harvest.
	SoloWindows uint64
	// MaxWindowFired is the largest single-window event count.
	MaxWindowFired uint64
	// WindowNanos and BarrierNanos split the run's wall-clock between the
	// parallel window region and the barrier hook. SweepNanos is the
	// hook's time (where the fleet's detection sweep runs, the part
	// BarrierParallelism exists to shrink) and equals BarrierNanos;
	// DeliverNanos always reads 0 and, like Delivered, is kept for
	// readers of the profile. Wall-clock: nondeterministic across runs
	// and hosts.
	WindowNanos  int64
	BarrierNanos int64
	DeliverNanos int64
	SweepNanos   int64
}

// Profile enables barrier cost accounting (idempotent) and returns the
// live stats, which accumulate across RunUntil calls. Collection costs a
// couple of clock reads per window, so it is off by default.
func (ss *ShardedSimulator) Profile() *BarrierStats {
	if ss.prof == nil {
		ss.prof = &BarrierStats{}
	}
	return ss.prof
}

// PerShardFired returns the events executed by each shard so far — the
// imbalance axis of the barrier profile. Unlike BarrierStats it needs no
// enabling; the kernel counts fired events regardless.
func (ss *ShardedSimulator) PerShardFired() []uint64 {
	out := make([]uint64, len(ss.shards))
	for i, s := range ss.shards {
		out[i] = s.fired
	}
	return out
}
