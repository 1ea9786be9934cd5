package sim

import "failstutter/internal/trace"

// SetTelemetry installs one shard-qualified tracer per shard, feeding the
// sink tracer; a nil sink leaves tracing off, and the off path costs
// components exactly what an untraced run costs (one nil check, zero
// allocations). Components placed on shard i record spans into that
// shard's tracer (ShardTracer); at the end of the run MergeTelemetry
// folds them into the sink in canonical placement-invariant order, so the
// exported trace is byte-identical at any shard count.
//
// recorder, when non-nil, bounds every per-shard tracer, and must match
// the recorder configured on the sink for the merge to reproduce
// single-collector selection: open spans are tracked exactly, completed
// spans pass through the bounded deterministic ring + reservoir
// selection instead of being retained wholesale. This is how the fleet
// experiments trace 2^20 disks in bounded memory.
//
// Call it before wiring components (they capture their shard's tracer
// when attached) and outside the parallel window.
func (ss *ShardedSimulator) SetTelemetry(sink *trace.Tracer, recorder *trace.RecorderConfig) {
	if ss.inWindow {
		panic("sim: SetTelemetry inside the parallel window")
	}
	ss.traceSink, ss.tracers = sink, nil
	if sink == nil {
		return
	}
	ss.tracers = make([]*trace.Tracer, len(ss.shards))
	for i := range ss.tracers {
		t := trace.NewShardTracer(i)
		if recorder != nil {
			t.SetFlightRecorder(*recorder)
		}
		ss.tracers[i] = t
	}
}

// ShardTracer returns shard i's trace collector, or nil when tracing is
// off — components pass it straight to their SetTracer hooks, whose nil
// path is the 0-alloc disabled path.
func (ss *ShardedSimulator) ShardTracer(i int) *trace.Tracer {
	if ss.tracers == nil {
		return nil
	}
	return ss.tracers[i]
}

// MergeTelemetry flushes every per-shard tracer and folds them into the
// sink, then detaches them: a second call is a no-op, so a run cannot
// double-count. It returns the flush time — the maximum shard clock,
// which is the placement-invariant choice: after RunUntil(limit) every
// clock equals the limit, and after a drained Run the clocks differ per
// shard by partition, so only the global maximum (the virtual time the
// whole simulation reached) reads the same at any shard count.
//
// Call it after the run, outside the parallel window; experiments then
// Rebase the sink past the returned time before the next sub-run.
func (ss *ShardedSimulator) MergeTelemetry() Time {
	if ss.inWindow {
		panic("sim: MergeTelemetry inside the parallel window")
	}
	end := Time(0)
	for _, s := range ss.shards {
		if t := s.Now(); t > end {
			end = t
		}
	}
	if ss.tracers == nil {
		return end
	}
	for _, t := range ss.tracers {
		t.Flush(end)
	}
	ss.traceSink.Merge(ss.tracers...)
	ss.traceSink, ss.tracers = nil, nil
	return end
}
