package sim

import (
	"testing"

	"failstutter/internal/trace"
)

// TestSetTelemetryInstallsPerShardCollectors checks the wiring contract:
// a tracer sink gets one shard-qualified collector per shard (distinct
// instances, none aliased to the sink).
func TestSetTelemetryInstallsPerShardCollectors(t *testing.T) {
	ss := NewSharded(3, 1)
	dst := trace.NewTracer()
	ss.SetTelemetry(dst, nil)
	seen := map[*trace.Tracer]bool{}
	for i := 0; i < 3; i++ {
		tr := ss.ShardTracer(i)
		if tr == nil || tr == dst {
			t.Fatalf("shard %d tracer = %v, want a fresh per-shard collector", i, tr)
		}
		if seen[tr] {
			t.Fatalf("shard %d shares a tracer collector with another shard", i)
		}
		seen[tr] = true
	}
}

// TestMergeTelemetryFoldsAtMaxClockAndDetaches runs uneven shard-local
// work, merges, and checks: spans from every shard land in the sink, the
// returned fold time is the maximum shard clock (the one end-of-run
// instant that is placement-invariant), and a second call is a no-op —
// the collectors detach on the first fold.
func TestMergeTelemetryFoldsAtMaxClockAndDetaches(t *testing.T) {
	ss := NewSharded(2, 1)
	dst := trace.NewTracer()
	ss.SetTelemetry(dst, nil)
	a := NewStation(ss.Shard(0), "a", 1e6)
	b := NewStation(ss.Shard(1), "b", 1e6)
	a.SetTracer(ss.ShardTracer(0))
	b.SetTracer(ss.ShardTracer(1))
	a.Submit(&Request{Size: 1e6}) // 1 s of service on shard 0
	b.Submit(&Request{Size: 3e6}) // 3 s of service on shard 1
	ss.Run()
	end := ss.MergeTelemetry()
	if end < 3 {
		t.Fatalf("fold time %v, want the maximum shard clock (>= 3)", end)
	}
	n := dst.Len()
	if n == 0 {
		t.Fatal("merge delivered no spans to the sink tracer")
	}
	names := map[string]bool{}
	for _, sp := range dst.Spans() {
		names[sp.Name] = true
	}
	if !names["service"] {
		t.Fatalf("merged spans missing station activity: %v", names)
	}
	if again := ss.MergeTelemetry(); again != end {
		t.Fatalf("second MergeTelemetry returned %v, want %v (idempotent)", again, end)
	}
	if dst.Len() != n {
		t.Fatalf("second MergeTelemetry changed the sink: %d -> %d spans", n, dst.Len())
	}
	if ss.ShardTracer(0) != nil {
		t.Fatal("shard collectors still attached after MergeTelemetry")
	}
}

// TestShardedUntracedZeroAllocs pins the telemetry-off sharded hot path
// at zero allocations: with no SetTelemetry call, ShardTracer is nil,
// stations take the disabled-tracer branch, and the window loop holds
// no buffers of its own — submitting and running windows must not
// allocate once the arenas have warmed up. Only one shard carries work so the window
// runs inline; the multi-active case spawns per-window goroutines, a
// cost of the parallel schedule itself, not of telemetry.
func TestShardedUntracedZeroAllocs(t *testing.T) {
	ss := NewSharded(2, 1)
	a := NewStation(ss.Shard(0), "a", 1e6)
	if ss.ShardTracer(0) != nil {
		t.Fatal("telemetry collectors present without SetTelemetry")
	}
	for i := 0; i < 4096; i++ { // warm rings, arenas, timer pools
		a.Submit(&Request{Size: 1})
	}
	limit := 8.0
	ss.RunUntil(limit)
	req := &Request{}
	allocs := testing.AllocsPerRun(500, func() {
		*req = Request{Size: 1}
		a.Submit(req)
		limit++
		ss.RunUntil(limit)
	})
	if allocs != 0 {
		t.Fatalf("telemetry-off sharded submit+window path allocates %v per op, want 0", allocs)
	}
}
