package faults

import (
	"math"
	"testing"

	"failstutter/internal/sim"
)

// fakeTarget records multiplier pushes and failure.
type fakeTarget struct {
	mult   float64
	failed bool
	sets   int
}

func newFakeTarget() *fakeTarget { return &fakeTarget{mult: 1} }

func (f *fakeTarget) SetMultiplier(m float64) { f.mult = m; f.sets++ }
func (f *fakeTarget) Fail()                   { f.failed = true }

func TestCompositeProduct(t *testing.T) {
	tgt := newFakeTarget()
	c := NewComposite(tgt)
	c.Set("a", 0.5)
	c.Set("b", 0.5)
	if tgt.mult != 0.25 {
		t.Fatalf("composed = %v, want 0.25", tgt.mult)
	}
	c.Clear("a")
	if tgt.mult != 0.5 {
		t.Fatalf("after clear = %v, want 0.5", tgt.mult)
	}
	c.Clear("b")
	if tgt.mult != 1 {
		t.Fatalf("all clear = %v, want 1", tgt.mult)
	}
}

func TestCompositeInvalidFactorPanics(t *testing.T) {
	c := NewComposite(newFakeTarget())
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("factor %v did not panic", bad)
				}
			}()
			c.Set("x", bad)
		}()
	}
}

func TestStatic(t *testing.T) {
	s := sim.New()
	tgt := newFakeTarget()
	c := NewComposite(tgt)
	Static{Factor: 0.9}.Install(s, c)
	if tgt.mult != 0.9 {
		t.Fatalf("static factor = %v", tgt.mult)
	}
}

func TestStepAt(t *testing.T) {
	s := sim.New()
	tgt := newFakeTarget()
	c := NewComposite(tgt)
	StepAt{At: 10, Factor: 0.5}.Install(s, c)
	s.RunUntil(9)
	if tgt.mult != 1 {
		t.Fatalf("stepped early: %v", tgt.mult)
	}
	s.RunUntil(11)
	if tgt.mult != 0.5 {
		t.Fatalf("step missing: %v", tgt.mult)
	}
}

func TestInterval(t *testing.T) {
	s := sim.New()
	tgt := newFakeTarget()
	c := NewComposite(tgt)
	Interval{Start: 5, End: 8, Factor: 0.25}.Install(s, c)
	s.RunUntil(6)
	if tgt.mult != 0.25 {
		t.Fatalf("during interval = %v", tgt.mult)
	}
	s.RunUntil(9)
	if tgt.mult != 1 {
		t.Fatalf("after interval = %v", tgt.mult)
	}
}

func TestIntervalInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted interval did not panic")
		}
	}()
	Interval{Start: 5, End: 5, Factor: 0.5}.Install(sim.New(), NewComposite(newFakeTarget()))
}

func TestPeriodicStall(t *testing.T) {
	s := sim.New()
	tgt := newFakeTarget()
	c := NewComposite(tgt)
	PeriodicStall{Period: 10, Duration: 2, Until: 50}.Install(s, c)
	// Stalls at t=10..12, 20..22, 30..32, 40..42, 50..52.
	s.RunUntil(11)
	if tgt.mult != 0 {
		t.Fatalf("not stalled at t=11: %v", tgt.mult)
	}
	s.RunUntil(13)
	if tgt.mult != 1 {
		t.Fatalf("not recovered at t=13: %v", tgt.mult)
	}
	s.RunUntil(200)
	if s.Pending() != 0 {
		t.Fatal("injector kept scheduling beyond Until")
	}
}

func TestPeriodicStallPartialFactor(t *testing.T) {
	s := sim.New()
	tgt := newFakeTarget()
	c := NewComposite(tgt)
	PeriodicStall{Period: 10, Duration: 2, Factor: 0.3, Until: 15}.Install(s, c)
	s.RunUntil(11)
	if tgt.mult != 0.3 {
		t.Fatalf("stall factor = %v, want 0.3", tgt.mult)
	}
}

func TestPeriodicStallJitterRequiresRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("jitter without RNG did not panic")
		}
	}()
	PeriodicStall{Period: 10, Duration: 1, Jitter: 2}.Install(sim.New(), NewComposite(newFakeTarget()))
}

func TestPoissonStallsRate(t *testing.T) {
	s := sim.New()
	tgt := newFakeTarget()
	c := NewComposite(tgt)
	stalls := 0
	rng := sim.NewRNG(1)
	PoissonStalls{
		MeanInterval: 100, Duration: 1, RNG: rng, Until: 100000,
		OnStall: func(sim.Time) { stalls++ },
	}.Install(s, c)
	s.RunUntil(100000)
	// Expect ~1000 stalls minus time lost in stall durations; accept a wide
	// but diagnostic band.
	if stalls < 800 || stalls > 1200 {
		t.Fatalf("poisson stall count = %d over 1000 mean intervals", stalls)
	}
	if tgt.failed {
		t.Fatal("poisson stalls must not fail the target")
	}
}

func TestChainResetsStallAllMembers(t *testing.T) {
	s := sim.New()
	targets := make([]*fakeTarget, 4)
	members := make([]*Composite, 4)
	for i := range targets {
		targets[i] = newFakeTarget()
		members[i] = NewComposite(targets[i])
	}
	resets := 0
	var resetTime sim.Time
	ChainResets{
		MeanInterval: 50, Duration: 2, RNG: sim.NewRNG(7), Until: 1000,
		OnReset: func(at sim.Time) {
			resets++
			if resets == 1 {
				resetTime = at
			}
		},
	}.InstallGroup(s, members)
	s.Run()
	if resets == 0 {
		t.Fatal("no resets fired")
	}
	// Replay to mid-first-reset and verify all members stalled together.
	s2 := sim.New()
	targets2 := make([]*fakeTarget, 4)
	members2 := make([]*Composite, 4)
	for i := range targets2 {
		targets2[i] = newFakeTarget()
		members2[i] = NewComposite(targets2[i])
	}
	ChainResets{MeanInterval: 50, Duration: 2, RNG: sim.NewRNG(7), Until: 1000}.InstallGroup(s2, members2)
	s2.RunUntil(resetTime + 1)
	for i, tg := range targets2 {
		if tg.mult != 0 {
			t.Fatalf("member %d not stalled during chain reset: %v", i, tg.mult)
		}
	}
	s2.RunUntil(resetTime + 3)
	for i, tg := range targets2 {
		if tg.mult != 1 {
			t.Fatalf("member %d not recovered after chain reset: %v", i, tg.mult)
		}
	}
}

func TestRandomWalkBounded(t *testing.T) {
	s := sim.New()
	tgt := newFakeTarget()
	c := NewComposite(tgt)
	var observed []float64
	RandomWalk{
		Interval: 1, Sigma: 0.2, Min: 0.3, Max: 1.0,
		RNG: sim.NewRNG(3), Until: 500,
	}.Install(s, c)
	for i := 1; i <= 500; i++ {
		s.RunUntil(float64(i))
		observed = append(observed, tgt.mult)
	}
	lo, hi := observed[0], observed[0]
	for _, v := range observed {
		if v < 0.3-1e-12 || v > 1.0+1e-12 {
			t.Fatalf("walk escaped bounds: %v", v)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi-lo < 0.2 {
		t.Fatalf("walk barely moved: range [%v, %v]", lo, hi)
	}
}

func TestLinearDrift(t *testing.T) {
	s := sim.New()
	tgt := newFakeTarget()
	c := NewComposite(tgt)
	LinearDrift{Start: 0, End: 100, From: 1.0, To: 0.2, Steps: 100}.Install(s, c)
	s.RunUntil(50)
	if math.Abs(tgt.mult-0.6) > 0.01 {
		t.Fatalf("drift midpoint = %v, want ~0.6", tgt.mult)
	}
	s.RunUntil(200)
	if math.Abs(tgt.mult-0.2) > 1e-9 {
		t.Fatalf("drift end = %v, want 0.2", tgt.mult)
	}
}

func TestCrashAt(t *testing.T) {
	s := sim.New()
	tgt := newFakeTarget()
	c := NewComposite(tgt)
	CrashAt{At: 42}.Install(s, c)
	s.RunUntil(41)
	if tgt.failed {
		t.Fatal("crashed early")
	}
	s.RunUntil(43)
	if !tgt.failed {
		t.Fatal("did not crash")
	}
}

func TestInstallAllComposes(t *testing.T) {
	s := sim.New()
	tgt := newFakeTarget()
	c := NewComposite(tgt)
	InstallAll(s, c,
		Static{Factor: 0.5},
		Interval{Start: 10, End: 20, Factor: 0.5},
	)
	s.RunUntil(15)
	if tgt.mult != 0.25 {
		t.Fatalf("composed factors = %v, want 0.25", tgt.mult)
	}
	s.RunUntil(25)
	if tgt.mult != 0.5 {
		t.Fatalf("after interval = %v, want 0.5", tgt.mult)
	}
}

func TestInjectorsOnStation(t *testing.T) {
	// End-to-end: a periodic stall against a real station delays work by
	// exactly the stalled time.
	s := sim.New()
	st := sim.NewStation(s, "d0", 10)
	c := NewComposite(st)
	PeriodicStall{Period: 5, Duration: 1, Until: 100}.Install(s, c)
	var finished sim.Time
	st.Submit(&sim.Request{Size: 100, OnDone: func(r *sim.Request) { finished = r.Finished }})
	s.Run()
	// 10 s of service; stalls at 5,11(=10+1 shifted)... Work of 100 units at
	// rate 10 requires 10 busy seconds; each stall adds 1 s. The finish time
	// must exceed the no-fault baseline by the number of stalls encountered.
	if finished <= 10 {
		t.Fatalf("stalls had no effect: finished at %v", finished)
	}
	if math.Mod(finished, 1) > 1e-6 && math.Mod(finished, 1) < 1-1e-6 {
		// The schedule is integral, so completion lands on an integer.
		t.Logf("note: finish %v not integral (acceptable, informational)", finished)
	}
}
