package cluster

import (
	"fmt"

	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// BSPParams configures a bulk-synchronous parallel computation: Rounds
// supersteps, each ending in a barrier. This is the "static use of
// parallelism" the paper's introduction singles out: because every round
// waits for the slowest participant, a single performance-faulty node
// taxes every round of the whole machine.
type BSPParams struct {
	// Rounds is the number of barrier-separated supersteps.
	Rounds int
	// UnitsPerWorkerRound is each worker's share of one round's work.
	UnitsPerWorkerRound int
	// Elastic, when true, pools each round's work and lets workers pull
	// it in Grain-sized pieces: the barrier remains (the algorithm
	// requires it) but within a round fast workers absorb a straggler's
	// share, so the straggler delays the barrier only by its final grain.
	Elastic bool
	// Grain is the pull granularity for the elastic variant (default 20
	// units).
	Grain int
}

// BSPReport summarizes a BSP run.
type BSPReport struct {
	Params   BSPParams
	Makespan sim.Duration
	// PerWorkerUnits is the work each worker actually executed.
	PerWorkerUnits []float64
}

func (r BSPReport) String() string {
	kind := "static"
	if r.Params.Elastic {
		kind = "elastic"
	}
	return fmt.Sprintf("bsp(%s): %d rounds in %.3fs", kind, r.Params.Rounds, r.Makespan)
}

// RunBSP executes the computation on the pool's simulator and returns
// when the final barrier clears. Barriers are pure events — a round ends
// at the instant its last worker finishes — so a straggler's tax on each
// round is exact, with no polling or OS scheduling in between.
func RunBSP(p *Pool, params BSPParams) BSPReport {
	if params.Rounds < 1 || params.UnitsPerWorkerRound < 1 {
		panic(fmt.Sprintf("cluster: invalid BSP params %+v", params))
	}
	grain := params.Grain
	if grain < 1 {
		grain = 20
	}
	s := p.sim
	n := p.Size()
	start := s.Now()
	before := snapshotUnits(p)

	var (
		round     int
		barrier   int     // workers yet to reach the current round's barrier
		remaining float64 // elastic: pooled units left in the current round
		done      bool
		doneAt    sim.Time
	)

	// Each superstep is one span on the "bsp" track, opened when the round
	// is dispatched and closed the instant its barrier clears — the span
	// length *is* the straggler tax made visible.
	tr := p.tracer
	var bspTrack trace.TrackID
	var roundSpan trace.SpanID
	if tr != nil {
		bspTrack = tr.Track("bsp")
	}
	barrierClear := func() {
		if tr != nil {
			tr.End(roundSpan, s.Now())
		}
	}

	finishJob := func() {
		done = true
		doneAt = s.Now()
		s.Stop()
	}

	var startRound func()

	if params.Elastic {
		// Pull a grain from the round's pool; leave the barrier only when
		// the pool is empty.
		pull := func(w *Worker) {
			if remaining <= 0 {
				barrier--
				if barrier == 0 {
					barrierClear()
					round++
					if round == params.Rounds {
						finishJob()
						return
					}
					startRound()
				}
				return
			}
			g := float64(grain)
			if g > remaining {
				g = remaining
			}
			remaining -= g
			w.exec(g)
		}
		startRound = func() {
			barrier = n
			remaining = float64(params.UnitsPerWorkerRound) * float64(n)
			if tr != nil {
				roundSpan = tr.Begin(bspTrack, fmt.Sprintf("superstep-%d", round), "bsp", 0, s.Now())
			}
			for _, w := range p.workers {
				pull(w)
			}
		}
		for _, w := range p.workers {
			w.finish = pull
		}
	} else {
		// Each worker owns its full per-round share; the barrier clears
		// when the slowest finishes.
		arrive := func(*Worker) {
			barrier--
			if barrier == 0 {
				barrierClear()
				round++
				if round == params.Rounds {
					finishJob()
					return
				}
				startRound()
			}
		}
		startRound = func() {
			barrier = n
			if tr != nil {
				roundSpan = tr.Begin(bspTrack, fmt.Sprintf("superstep-%d", round), "bsp", 0, s.Now())
			}
			for _, w := range p.workers {
				w.exec(float64(params.UnitsPerWorkerRound))
			}
		}
		for _, w := range p.workers {
			w.finish = arrive
		}
	}

	startRound()
	s.Run()
	for _, w := range p.workers {
		w.finish = nil
	}
	if !done {
		panic(fmt.Sprintf("cluster: BSP stalled in round %d with %d workers short of the barrier", round, barrier))
	}
	return BSPReport{
		Params:         params,
		Makespan:       doneAt - start,
		PerWorkerUnits: perWorkerUnits(p, before),
	}
}
