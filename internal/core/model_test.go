package core

import (
	"testing"

	"failstutter/internal/detect"
	"failstutter/internal/sim"
	"failstutter/internal/spec"
)

// saturatedStation keeps a station busy forever and returns a work
// counter.
func saturatedStation(s *sim.Simulator, name string, rate float64) (*sim.Station, func() float64) {
	st := sim.NewStation(s, name, rate)
	var refill func()
	refill = func() {
		st.Submit(&sim.Request{Size: rate / 10, OnDone: func(*sim.Request) { refill() }})
	}
	refill()
	return st, func() float64 { return float64(st.Completed()) * rate / 10 }
}

func specDetector() detect.Detector {
	return detect.NewSpecDetector(spec.Spec{ExpectedRate: 100, Tolerance: 0.3, PromotionTimeout: 20})
}

func TestNotifyPolicyString(t *testing.T) {
	if NotifyPersistent.String() != "persistent" || NotifyEvery.String() != "every" {
		t.Fatal("policy names wrong")
	}
	if NotifyPolicy(9).String() != "policy(9)" {
		t.Fatal("unknown policy name wrong")
	}
}

func TestControllerDetectsStutter(t *testing.T) {
	s := sim.New()
	ctl := NewController(s)
	st, counter := saturatedStation(s, "d0", 100)
	ctl.Watch("d0", counter, AttachConfig{
		Interval: 1,
		Detector: specDetector(),
		Policy:   NotifyPersistent,
	})
	s.At(50, func() { st.SetMultiplier(0.3) })
	s.RunUntil(100)
	if ctl.State("d0") != spec.PerfFaulty {
		t.Fatalf("state = %v, want perf-faulty", ctl.State("d0"))
	}
	if got := ctl.Registry().Faulty(); len(got) != 1 || got[0] != "d0" {
		t.Fatalf("faulty = %v", got)
	}
}

func TestControllerHealthyStaysNominal(t *testing.T) {
	s := sim.New()
	ctl := NewController(s)
	_, counter := saturatedStation(s, "d0", 100)
	ctl.Watch("d0", counter, AttachConfig{Interval: 1, Detector: specDetector()})
	s.RunUntil(100)
	if ctl.State("d0") != spec.Nominal {
		t.Fatalf("state = %v", ctl.State("d0"))
	}
	if n := ctl.Registry().Notifications(); n != 0 {
		t.Fatalf("healthy component produced %d notifications", n)
	}
}

func TestControllerPromotionOnCrash(t *testing.T) {
	s := sim.New()
	ctl := NewController(s)
	st, counter := saturatedStation(s, "d0", 100)
	ctl.Watch("d0", counter, AttachConfig{Interval: 1, Detector: specDetector()})
	s.At(30, st.Fail)
	s.RunUntil(100)
	if ctl.State("d0") != spec.AbsoluteFaulty {
		t.Fatalf("state = %v, want absolute after sustained silence", ctl.State("d0"))
	}
}

func TestControllerNotifyEveryVsPersistent(t *testing.T) {
	// A blinking fault (1 bad sample in 4) should generate notifications
	// under NotifyEvery but none under NotifyPersistent with streak 3.
	run := func(policy NotifyPolicy) uint64 {
		s := sim.New()
		ctl := NewController(s)
		st, counter := saturatedStation(s, "d0", 100)
		ctl.Watch("d0", counter, AttachConfig{
			Interval: 1, Detector: specDetector(), Policy: policy,
		})
		// Blink: drop to 10% for 1 s every 4 s.
		var blink func()
		blink = func() {
			st.SetMultiplier(0.1)
			s.After(1, func() {
				st.SetMultiplier(1)
				s.After(3, blink)
			})
		}
		s.At(10, blink)
		s.RunUntil(200)
		return ctl.Registry().Notifications()
	}
	every := run(NotifyEvery)
	persistent := run(NotifyPersistent)
	if every < 10 {
		t.Fatalf("NotifyEvery notifications = %d, want many", every)
	}
	if persistent != 0 {
		t.Fatalf("NotifyPersistent notifications = %d, want 0 for transient blips", persistent)
	}
}

func TestControllerDuplicateWatchPanics(t *testing.T) {
	s := sim.New()
	ctl := NewController(s)
	_, counter := saturatedStation(s, "d0", 100)
	ctl.Watch("d0", counter, AttachConfig{Interval: 1, Detector: specDetector()})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate watch did not panic")
		}
	}()
	ctl.Watch("d0", counter, AttachConfig{Interval: 1, Detector: specDetector()})
}

func TestControllerMissingDetectorPanics(t *testing.T) {
	s := sim.New()
	ctl := NewController(s)
	defer func() {
		if recover() == nil {
			t.Fatal("nil detector did not panic")
		}
	}()
	ctl.Watch("d0", func() float64 { return 0 }, AttachConfig{Interval: 1})
}

func TestControllerWatchedSorted(t *testing.T) {
	s := sim.New()
	ctl := NewController(s)
	_, c1 := saturatedStation(s, "b", 10)
	_, c2 := saturatedStation(s, "a", 10)
	ctl.Watch("b", c1, AttachConfig{Interval: 1, Detector: specDetector()})
	ctl.Watch("a", c2, AttachConfig{Interval: 1, Detector: specDetector()})
	w := ctl.Watched()
	if len(w) != 2 || w[0] != "a" || w[1] != "b" {
		t.Fatalf("watched = %v", w)
	}
}

func TestControllerRecordsSeries(t *testing.T) {
	s := sim.New()
	ctl := NewController(s)
	_, counter := saturatedStation(s, "d0", 100)
	ctl.Watch("d0", counter, AttachConfig{
		Interval: 1, Detector: specDetector(), Record: true,
	})
	s.RunUntil(20)
	series := ctl.Series("d0")
	if series == nil || series.Len() < 18 {
		t.Fatalf("series missing or short: %v", series)
	}
	if series.Last() != 100 {
		t.Fatalf("recorded rate = %v, want 100", series.Last())
	}
	if ctl.Series("unknown") != nil {
		t.Fatal("unknown component returned a series")
	}
}

func TestControllerWatchRateSampler(t *testing.T) {
	s := sim.New()
	ctl := NewController(s)
	level := 100.0
	ctl.WatchRate("svc", func(now float64) float64 { return level }, AttachConfig{
		Interval: 1,
		Detector: detect.NewSpecDetector(spec.Spec{ExpectedRate: 100, Tolerance: 0.3}),
		Policy:   NotifyEvery,
		Record:   true,
	})
	s.RunUntil(10)
	if ctl.State("svc") != spec.Nominal {
		t.Fatalf("state = %v", ctl.State("svc"))
	}
	level = 20
	s.RunUntil(20)
	if ctl.State("svc") != spec.PerfFaulty {
		t.Fatalf("state after drop = %v", ctl.State("svc"))
	}
	// The recorded samples must reproduce the sampled levels exactly.
	series := ctl.Series("svc")
	if series.At(5) != 100 || series.At(19) != 20 {
		t.Fatalf("series values wrong: at5=%v at19=%v", series.At(5), series.At(19))
	}
}

func TestControllerStopHaltsProbes(t *testing.T) {
	s := sim.New()
	ctl := NewController(s)
	st, counter := saturatedStation(s, "d0", 100)
	ctl.Watch("d0", counter, AttachConfig{Interval: 1, Detector: specDetector(), Policy: NotifyEvery})
	s.RunUntil(10)
	ctl.Stop()
	st.SetMultiplier(0.1)
	s.RunUntil(50)
	if ctl.State("d0") != spec.Nominal {
		t.Fatal("stopped controller still updating state")
	}
}
