package sim

import (
	"testing"

	"failstutter/internal/trace"
)

// TestStationSpanStructure drives two requests through a traced station and
// checks the exported span graph: the first request is served immediately
// (service span only), the second waits (queue span closed when service
// begins), and both link back to the caller's parent span.
func TestStationSpanStructure(t *testing.T) {
	s := New()
	st := NewStation(s, "disk0", 10)
	tr := trace.NewTracer()
	st.SetTracer(tr)

	parent := tr.Begin(tr.Track("caller"), "write", "raid", 0, 0)
	r1 := &Request{Size: 10, ParentSpan: parent} // 1 s of service
	st.Submit(r1)
	r2 := &Request{Size: 20, ParentSpan: parent} // queues behind r1
	st.Submit(r2)
	s.Run()
	tr.End(parent, s.Now())

	// SetTracer registered the station's track first, then the caller's.
	if got := tr.Tracks(); len(got) != 2 || got[0] != "disk0" || got[1] != "caller" {
		t.Fatalf("tracks = %v, want [disk0 caller]", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	type want struct {
		name       string
		start, end float64
	}
	wants := []want{
		{"write", 0, 3},   // caller span, closed at the final virtual time
		{"service", 0, 1}, // r1 served immediately
		{"queue", 0, 1},   // r2 waits until r1 finishes
		{"service", 1, 3}, // r2 service
	}
	for i, w := range wants {
		sp := spans[i]
		if sp.Name != w.name || sp.Start != w.start || sp.End != w.end {
			t.Errorf("span %d = %s [%g,%g], want %s [%g,%g]",
				i, sp.Name, sp.Start, sp.End, w.name, w.start, w.end)
		}
		if sp.Open() {
			t.Errorf("span %d (%s) left open", i, sp.Name)
		}
		if i > 0 && sp.Parent != parent {
			t.Errorf("span %d (%s) parent = %d, want %d", i, sp.Name, sp.Parent, parent)
		}
	}
	if spans[1].Track != spans[3].Track {
		t.Errorf("service spans on different tracks: %d vs %d", spans[1].Track, spans[3].Track)
	}
}

// TestStationFailRepairSpans checks fail-stop tracing: failing a station
// ends the in-service and queued spans at the failure instant and records
// "fail"/"repair" markers.
func TestStationFailRepairSpans(t *testing.T) {
	s := New()
	st := NewStation(s, "disk0", 1)
	tr := trace.NewTracer()
	st.SetTracer(tr)

	st.Submit(&Request{Size: 100}) // in service, would finish at t=100
	st.Submit(&Request{Size: 100}) // queued
	s.After(5, st.Fail)
	s.After(7, st.Repair)
	s.Run()

	if got := st.Abandoned(); got != 2 {
		t.Fatalf("abandoned = %d, want 2", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	for i, w := range []struct {
		name       string
		start, end float64
		instant    bool
	}{
		{"service", 0, 5, false},
		{"queue", 0, 5, false},
		{"fail", 5, 5, true},
		{"repair", 7, 7, true},
	} {
		sp := spans[i]
		if sp.Name != w.name || sp.Start != w.start || sp.End != w.end || sp.Instant != w.instant {
			t.Errorf("span %d = %s [%g,%g] instant=%v, want %s [%g,%g] instant=%v",
				i, sp.Name, sp.Start, sp.End, sp.Instant, w.name, w.start, w.end, w.instant)
		}
	}
}

// TestStationSetTracerNilDetaches confirms a station stops recording after
// SetTracer(nil), returning to the zero-cost path.
func TestStationSetTracerNilDetaches(t *testing.T) {
	s := New()
	st := NewStation(s, "disk0", 10)
	tr := trace.NewTracer()
	st.SetTracer(tr)
	st.Submit(&Request{Size: 10})
	s.Run()
	n := tr.Len()
	if n == 0 {
		t.Fatal("traced request recorded no spans")
	}
	st.SetTracer(nil)
	st.Submit(&Request{Size: 10})
	s.Run()
	if got := tr.Len(); got != n {
		t.Fatalf("detached station still recorded spans: %d -> %d", n, got)
	}
}

// TestScheduleUntracedZeroAllocs pins the kernel's schedule-and-fire path at
// zero allocations once the event arena has warmed up. The kernel has no
// tracer hooks at all, so this guards the BenchmarkSchedule figure against
// regression from any future observability plumbing.
func TestScheduleUntracedZeroAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 2048; i++ { // warm the arena past the benchmark batch size
		s.After(1, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(1, fn)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule-and-fire path allocates %v per op, want 0", allocs)
	}
}

// TestStationUntracedZeroAllocs pins the full submit→serve→complete station
// path at zero allocations when no tracer is attached. The caller owns the
// Request allocation (reused here), so any allocation the loop observes
// would come from the station or kernel internals — including the
// disabled-tracer hooks, which must cost one nil check and nothing else.
func TestStationUntracedZeroAllocs(t *testing.T) {
	s := New()
	st := NewStation(s, "bench", 1e6)
	for i := 0; i < 8192; i++ { // warm the ring, arena, and timer pool
		st.Submit(&Request{Size: 1})
	}
	s.Run()
	req := &Request{}
	allocs := testing.AllocsPerRun(1000, func() {
		*req = Request{Size: 1}
		st.Submit(req)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("untraced station pipeline allocates %v per op, want 0", allocs)
	}
}
