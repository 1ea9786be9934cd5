package profile

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// randomWorkload drives a few traced stations with a random request
// pattern and returns the flushed tracer (and registry when sample is
// set).
func randomWorkload(seed uint64, sample bool) (*trace.Tracer, *trace.Registry) {
	rng := sim.NewRNG(seed)
	s := sim.New()
	tr := trace.NewTracer()
	var reg *trace.Registry
	if sample {
		reg = trace.NewRegistry()
		s.SetStationProbe(StationSampler(reg, "run-0"))
	}

	n := 2 + rng.Intn(3)
	stations := make([]*sim.Station, n)
	for i := range stations {
		stations[i] = sim.NewStation(s, fmt.Sprintf("st-%d", i), rng.Uniform(50, 200))
		stations[i].SetTracer(tr)
	}
	reqs := 5 + rng.Intn(25)
	for i := 0; i < reqs; i++ {
		st := stations[rng.Intn(n)]
		at := rng.Uniform(0, 2)
		size := rng.Uniform(1, 50)
		s.After(at, func() { st.Submit(&sim.Request{Size: size}) })
	}
	s.Run()
	tr.Flush(s.Now())
	return tr, reg
}

// TestCriticalPathProperty checks, across 1000 random seeds, the two
// defining bounds of the critical path: it can never exceed the
// makespan, and it can never undercut the busiest single component
// (whose busy time alone is a lower bound on the schedule).
func TestCriticalPathProperty(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 100
	}
	for seed := 0; seed < seeds; seed++ {
		tr, _ := randomWorkload(uint64(seed), false)
		r := Analyze(tr, nil)

		if r.CriticalLen > r.Makespan*(1+1e-9)+1e-9 {
			t.Fatalf("seed %d: critical path %v exceeds makespan %v", seed, r.CriticalLen, r.Makespan)
		}

		// Independent busy computation: union-sweep each track's spans.
		byTrack := map[trace.TrackID][][2]float64{}
		for _, sp := range tr.Spans() {
			if sp.Instant || sp.Open() {
				continue
			}
			byTrack[sp.Track] = append(byTrack[sp.Track], [2]float64{sp.Start, sp.End})
		}
		maxBusy := 0.0
		for _, ivals := range byTrack {
			sort.Slice(ivals, func(a, b int) bool { return ivals[a][0] < ivals[b][0] })
			covered, end := 0.0, math.Inf(-1)
			for _, iv := range ivals {
				if iv[0] > end {
					covered += iv[1] - iv[0]
					end = iv[1]
				} else if iv[1] > end {
					covered += iv[1] - end
					end = iv[1]
				}
			}
			if covered > maxBusy {
				maxBusy = covered
			}
		}
		if r.CriticalLen < maxBusy*(1-1e-9)-1e-9 {
			t.Fatalf("seed %d: critical path %v below max component busy %v", seed, r.CriticalLen, maxBusy)
		}
	}
}

// TestAnalysisDeterministic asserts every artifact is byte-identical
// across repeated simulate+analyze cycles of the same seed.
func TestAnalysisDeterministic(t *testing.T) {
	render := func() [3]string {
		tr, reg := randomWorkload(42, true)
		r := Analyze(tr, reg)
		var j, f, x strings.Builder
		if err := r.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteFolded(&f); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteText(&x, 10); err != nil {
			t.Fatal(err)
		}
		return [3]string{j.String(), f.String(), x.String()}
	}
	a, b := render(), render()
	for i, name := range []string{"profile JSON", "folded stacks", "text report"} {
		if a[i] != b[i] {
			t.Fatalf("%s not byte-identical across repeated runs", name)
		}
	}
}

// TestStationSamplerQueueStats runs a workload that definitely queues
// and checks the sampled series surface in the component profile.
func TestStationSamplerQueueStats(t *testing.T) {
	s := sim.New()
	tr := trace.NewTracer()
	reg := trace.NewRegistry()
	s.SetStationProbe(StationSampler(reg, "run-0"))
	st := sim.NewStation(s, "st-0", 100)
	st.SetTracer(tr)
	for i := 0; i < 5; i++ {
		st.Submit(&sim.Request{Size: 100}) // 1s each, all submitted at t=0
	}
	s.Run()
	tr.Flush(s.Now())

	r := Analyze(tr, reg)
	var c *Component
	for i := range r.Components {
		if r.Components[i].Name == "st-0" {
			c = &r.Components[i]
		}
	}
	if c == nil || c.Queue == nil {
		t.Fatalf("st-0 has no queue stats: %+v", r.Components)
	}
	if c.Queue.MaxDepth != 5 {
		t.Fatalf("max depth %v, want 5 (all requests submitted at once)", c.Queue.MaxDepth)
	}
	if c.Queue.MeanDepth <= 1 || c.Queue.MeanDepth >= 5 {
		t.Fatalf("time-weighted mean depth %v, want within (1, 5)", c.Queue.MeanDepth)
	}
	if c.Queue.MaxBacklog < 400 {
		t.Fatalf("max backlog %v, want >= 400 work units", c.Queue.MaxBacklog)
	}
	if c.Utilization < 0.99 {
		t.Fatalf("utilization %v, want ~1 for a saturated station", c.Utilization)
	}
}
