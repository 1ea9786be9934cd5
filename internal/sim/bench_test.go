package sim

import (
	"testing"

	"failstutter/internal/trace"
)

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, func() {})
		if s.Pending() > 1024 {
			s.Run()
		}
	}
	s.Run()
}

func BenchmarkEventChain(b *testing.B) {
	s := New()
	n := 0
	var next func()
	next = func() {
		n++
		if n < b.N {
			s.After(0.001, next)
		}
	}
	s.After(0, next)
	b.ResetTimer()
	s.Run()
}

func BenchmarkStationThroughput(b *testing.B) {
	s := New()
	st := NewStation(s, "bench", 1e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Submit(&Request{Size: 1})
		if st.QueueLen() > 1024 {
			s.Run()
		}
	}
	s.Run()
}

func BenchmarkStationRateChanges(b *testing.B) {
	s := New()
	st := NewStation(s, "bench", 1e6)
	st.Submit(&Request{Size: float64(b.N) + 1e9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.SetMultiplier(0.5 + float64(i%2)/2)
	}
}

// BenchmarkSchedule measures the steady-state cost of scheduling one event
// that later fires: the kernel's hottest path. With the event arena this
// must run at 0 allocs/op once the arena has warmed up.
func BenchmarkSchedule(b *testing.B) {
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, func() {})
		if s.Pending() > 1024 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkTimerStop measures schedule-then-cancel churn, the pattern
// Station.reschedule generates on every rate change.
func BenchmarkTimerStop(b *testing.B) {
	s := New()
	timers := make([]Timer, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timers = append(timers, s.After(float64(i%64)+1, func() {}))
		if len(timers) == cap(timers) {
			for _, tm := range timers {
				tm.Stop()
			}
			timers = timers[:0]
			s.Run()
		}
	}
	b.StopTimer()
	for _, tm := range timers {
		tm.Stop()
	}
	s.Run()
}

// BenchmarkHoldDeepHeap is the classic hold model at fleet scale: 2^18
// events stay pending, and every fired event schedules one successor an
// exponential delay later, so each op is one pop and one push on a heap
// far larger than L2 — the kernel's share of a 2^18-disk fleet run.
func BenchmarkHoldDeepHeap(b *testing.B) {
	s := New()
	rng := NewRNG(1)
	var hold func()
	hold = func() { s.After(rng.Exp(1), hold) }
	for i := 0; i < 1<<18; i++ {
		s.At(rng.Exp(1), hold)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}

// BenchmarkStationPipeline measures a deep FCFS queue draining end to end:
// the switch and RAID experiments push thousands of queued requests through
// a station, so dequeue cost dominates.
func BenchmarkStationPipeline(b *testing.B) {
	s := New()
	st := NewStation(s, "bench", 1e6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Submit(&Request{Size: 1})
		if st.QueueLen() >= 4096 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkStationPipelineTraced is BenchmarkStationPipeline with a span
// tracer attached — the enabled-cost comparison for the observability
// plane. The tracer is swapped out at each drain so accumulated spans
// don't dominate memory at large b.N; compare against the untraced
// benchmark for the per-request overhead of recording queue/service spans.
func BenchmarkStationPipelineTraced(b *testing.B) {
	s := New()
	st := NewStation(s, "bench", 1e6)
	st.SetTracer(trace.NewTracer())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Submit(&Request{Size: 1})
		if st.QueueLen() >= 4096 {
			s.Run()
			st.SetTracer(trace.NewTracer())
		}
	}
	s.Run()
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkRNGNorm(b *testing.B) {
	r := NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm(0, 1)
	}
	_ = sink
}

// benchSharded drives a fixed fleet of event chains through a sharded
// kernel; the workload is independent per component, so every window runs
// all shards in parallel. Reported per executed event.
func benchSharded(b *testing.B, shards int) {
	const components = 256
	ss := NewSharded(shards, 1.0)
	root := NewRNG(9)
	per := b.N/components + 1
	for c := 0; c < components; c++ {
		name := benchName(c)
		rng := root.Fork(name)
		sh := ss.Shard(ss.ShardFor(name))
		var step func()
		n := 0
		step = func() {
			if n++; n < per {
				sh.After(0.01+rng.Float64(), step)
			}
		}
		sh.At(rng.Float64(), step)
	}
	b.ResetTimer()
	ss.Run()
	b.StopTimer()
	if fired := ss.EventsFired(); fired < uint64(b.N) {
		b.Fatalf("fired %d events, want at least %d", fired, b.N)
	}
}

func benchName(c int) string { return "comp" + string(rune('a'+c/26%26)) + string(rune('a'+c%26)) }

func BenchmarkShardedEventChain1(b *testing.B) { benchSharded(b, 1) }
func BenchmarkShardedEventChain4(b *testing.B) { benchSharded(b, 4) }
