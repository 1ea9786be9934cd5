package detect

import (
	"testing"
	"testing/quick"

	"failstutter/internal/sim"
	"failstutter/internal/spec"
)

func specDet() Detector {
	return NewSpecDetector(spec.Spec{ExpectedRate: 100, Tolerance: 0.2, PromotionTimeout: 50})
}

func TestHysteresisSuppressesTransients(t *testing.T) {
	h := NewHysteresis(specDet(), 3, 2)
	now := 0.0
	obs := func(r float64) {
		h.Observe(now, r)
		now++
	}
	obs(100)
	obs(10) // 1 faulty sample
	obs(10) // 2 faulty samples
	if h.Verdict(now) != spec.Nominal {
		t.Fatal("fired before enter streak")
	}
	obs(10) // 3rd: fires
	if h.Verdict(now) != spec.PerfFaulty {
		t.Fatal("did not fire after enter streak")
	}
	obs(100) // 1 nominal
	if h.Verdict(now) != spec.PerfFaulty {
		t.Fatal("recovered before exit streak")
	}
	obs(100) // 2nd: recovers
	if h.Verdict(now) != spec.Nominal {
		t.Fatal("did not recover after exit streak")
	}
}

func TestHysteresisBrokenStreakResets(t *testing.T) {
	h := NewHysteresis(specDet(), 3, 1)
	now := 0.0
	obs := func(r float64) {
		h.Observe(now, r)
		now++
	}
	obs(10)
	obs(10)
	obs(100) // streak broken
	obs(10)
	obs(10)
	if h.Verdict(now) != spec.Nominal {
		t.Fatal("broken streak still fired")
	}
}

func TestHysteresisAbsoluteLatches(t *testing.T) {
	h := NewHysteresis(specDet(), 3, 1)
	h.Observe(0, 0)
	// Silence past the promotion timeout, queried without new observations.
	if h.Verdict(100) != spec.AbsoluteFaulty {
		t.Fatal("promotion not passed through")
	}
	// Recovery observations must not clear an absolute fault.
	h.Observe(101, 100)
	if h.Verdict(102) != spec.AbsoluteFaulty {
		t.Fatal("absolute fault unlatched")
	}
}

func TestHysteresisInvalidStreaksPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero streak did not panic")
		}
	}()
	NewHysteresis(specDet(), 0, 1)
}

// Property: hysteresis never reports PerfFaulty unless the inner detector
// produced at least enterAfter consecutive faulty verdicts.
func TestHysteresisNeverEarlyProperty(t *testing.T) {
	f := func(pattern []bool, enter8 uint8) bool {
		enter := int(enter8%5) + 1
		h := NewHysteresis(specDet(), enter, 1)
		streak := 0
		now := 0.0
		for _, bad := range pattern {
			rate := 100.0
			if bad {
				rate = 10
				streak++
			} else {
				streak = 0
			}
			h.Observe(now, rate)
			got := h.Verdict(now)
			if got == spec.PerfFaulty && streak < enter {
				return false
			}
			now++
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryPublishesTransitionsOnly(t *testing.T) {
	r := NewRegistry()
	var events []Event
	r.Subscribe(func(e Event) { events = append(events, e) })
	r.Update(1, "d0", spec.Nominal) // no change from implicit nominal
	if len(events) != 0 {
		t.Fatal("nominal->nominal published")
	}
	r.Update(2, "d0", spec.PerfFaulty)
	r.Update(3, "d0", spec.PerfFaulty) // unchanged
	r.Update(4, "d0", spec.Nominal)
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].From != spec.Nominal || events[0].To != spec.PerfFaulty || events[0].At != 2 {
		t.Fatalf("first event = %+v", events[0])
	}
	if r.Notifications() != 2 {
		t.Fatalf("notifications = %d", r.Notifications())
	}
}

func TestRegistryStateAndFaulty(t *testing.T) {
	r := NewRegistry()
	r.Update(1, "b", spec.PerfFaulty)
	r.Update(1, "a", spec.AbsoluteFaulty)
	r.Update(1, "c", spec.Nominal)
	if r.State("b") != spec.PerfFaulty {
		t.Fatalf("state(b) = %v", r.State("b"))
	}
	if r.State("unknown") != spec.Nominal {
		t.Fatal("unknown component not nominal")
	}
	f := r.Faulty()
	if len(f) != 2 || f[0] != "a" || f[1] != "b" {
		t.Fatalf("faulty = %v", f)
	}
}

func TestRegistryEventsCopy(t *testing.T) {
	r := NewRegistry()
	r.Update(1, "x", spec.PerfFaulty)
	evs := r.Events()
	evs[0].Component = "mutated"
	if r.Events()[0].Component != "x" {
		t.Fatal("Events returned a mutable reference")
	}
}

func TestProbeComputesRates(t *testing.T) {
	s := sim.New()
	counter := 0.0
	// Counter advances 10 units/s via events every 0.5 s.
	var tick func()
	tick = func() {
		counter += 5
		if s.Now() < 10 {
			s.After(0.5, tick)
		}
	}
	s.After(0.5, tick)
	var rates []float64
	NewProbe(s, 1.0, func() float64 { return counter }, func(now, rate float64) {
		rates = append(rates, rate)
	})
	s.RunUntil(5)
	if len(rates) != 5 {
		t.Fatalf("samples = %d, want 5", len(rates))
	}
	// The first sample races the co-scheduled counter tick at t=1 and may
	// see only half the interval's progress; steady-state samples must be
	// exact.
	for _, r := range rates[1:] {
		if r != 10 {
			t.Fatalf("rates = %v, want steady 10", rates)
		}
	}
}

func TestProbeStop(t *testing.T) {
	s := sim.New()
	n := 0
	p := NewProbe(s, 1, func() float64 { return 0 }, func(now, rate float64) { n++ })
	s.RunUntil(3.5)
	p.Stop()
	s.RunUntil(10)
	if n != 3 {
		t.Fatalf("samples after stop = %d, want 3", n)
	}
	if p.Samples() != 3 {
		t.Fatalf("Samples() = %d", p.Samples())
	}
}

func TestProbeDecreasingCounterPanics(t *testing.T) {
	s := sim.New()
	counter := 100.0
	NewProbe(s, 1, func() float64 { counter -= 1; return counter }, func(now, rate float64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing counter did not panic")
		}
	}()
	s.RunUntil(2)
}

func TestProbeInvalidIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval did not panic")
		}
	}()
	NewProbe(sim.New(), 0, func() float64 { return 0 }, nil)
}

// End-to-end: probe + detector + registry watching a simulated station
// that stutters.
func TestDetectionPipelineEndToEnd(t *testing.T) {
	s := sim.New()
	st := sim.NewStation(s, "d0", 100)
	// Keep the station saturated.
	var refill func()
	refill = func() {
		st.Submit(&sim.Request{Size: 50, OnDone: func(*sim.Request) { refill() }})
	}
	refill()
	// Slow to 30% at t=60.
	s.At(60, func() { st.SetMultiplier(0.3) })

	det := NewHysteresis(NewSpecDetector(spec.Spec{ExpectedRate: 100, Tolerance: 0.3, PromotionTimeout: 30}), 3, 3)
	reg := NewRegistry()
	var firedAt float64 = -1
	reg.Subscribe(func(e Event) {
		if e.To == spec.PerfFaulty && firedAt < 0 {
			firedAt = e.At
		}
	})
	NewProbe(s, 1, func() float64 { return float64(st.Completed()) * 50 }, func(now, rate float64) {
		det.Observe(now, rate)
		reg.Update(now, "d0", det.Verdict(now))
	})
	s.RunUntil(120)
	if firedAt < 60 {
		t.Fatalf("detector fired at %v, before the fault", firedAt)
	}
	if firedAt > 70 {
		t.Fatalf("detector fired at %v, too slow (fault at 60)", firedAt)
	}
	if reg.State("d0") != spec.PerfFaulty {
		t.Fatalf("final state = %v", reg.State("d0"))
	}
}
