// Package river implements the two core mechanisms of River (the
// authors' cluster-I/O programming environment, discussed in Section 4 of
// the paper as the precursor to fail-stutter-tolerant design): the
// distributed queue, which balances a stream of records across consumers
// of varying speed through back-pressure, and graduated declustering,
// which serves each mirrored data partition from both replicas in
// proportion to their observed rates so a single slow disk degrades
// aggregate read bandwidth gracefully instead of halving it.
//
// Both run on the internal/sim kernel. River "makes the fast case
// common": no component is ever declared failed, the system simply
// follows whatever performance the components actually deliver — the
// performance-fault half of the fail-stutter model, without the
// correctness-fault half (which the paper notes River lacks).
package river

import (
	"fmt"

	"failstutter/internal/faults"
	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// Policy selects how the distributed queue routes the next record.
type Policy int

const (
	// RoundRobin ignores consumer state entirely (the static design).
	RoundRobin Policy = iota
	// RandomChoice picks a uniformly random consumer.
	RandomChoice
	// CreditBased picks the consumer with the most free queue slots —
	// River's back-pressure balancing; a slow consumer's queue stays
	// full, so it naturally receives fewer records.
	CreditBased
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case RandomChoice:
		return "random"
	case CreditBased:
		return "credit-based"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// DQParams configures a distributed queue.
type DQParams struct {
	// Consumers is the number of downstream consumers.
	Consumers int
	// ConsumerRate is each consumer's nominal service rate,
	// records/second.
	ConsumerRate float64
	// QueueCap bounds each consumer's queue, in records; the producer
	// blocks when every queue it may use is full.
	QueueCap int
	// Policy selects the routing discipline.
	Policy Policy
	// RNG is required for RandomChoice.
	RNG *sim.RNG
}

// DQ is a single-producer distributed queue over simulated consumers.
type DQ struct {
	s       *sim.Simulator
	p       DQParams
	cons    []*consumer
	rr      int
	blocked bool
	// waiting holds the producer continuation while back-pressured.
	resume func()

	produced  int64
	delivered int64

	tracer *trace.Tracer
	track  trace.TrackID // producer-side track for back-pressure instants
}

type consumer struct {
	station *sim.Station
	comp    *faults.Composite
	queued  int // records accepted but not yet finished
	done    int64
}

// NewDQ validates params and builds the queue.
func NewDQ(s *sim.Simulator, p DQParams) *DQ {
	if p.Consumers < 1 || p.ConsumerRate <= 0 || p.QueueCap < 1 {
		panic(fmt.Sprintf("river: invalid DQ params %+v", p))
	}
	if p.Policy == RandomChoice && p.RNG == nil {
		panic("river: RandomChoice requires an RNG")
	}
	dq := &DQ{s: s, p: p}
	for i := 0; i < p.Consumers; i++ {
		st := sim.NewStation(s, fmt.Sprintf("consumer-%d", i), p.ConsumerRate)
		dq.cons = append(dq.cons, &consumer{station: st, comp: faults.NewComposite(st)})
	}
	return dq
}

// SetTracer attaches a span tracer: each consumer station records its
// queue/service spans, and the producer records a "blocked" instant every
// time back-pressure stalls it.
func (dq *DQ) SetTracer(t *trace.Tracer) {
	dq.tracer = t
	if t != nil {
		dq.track = t.Track("producer")
	}
	for _, c := range dq.cons {
		c.station.SetTracer(t)
	}
}

// ConsumerComposite exposes consumer i's fault target.
func (dq *DQ) ConsumerComposite(i int) *faults.Composite { return dq.cons[i].comp }

// ConsumerDone returns records completed by consumer i.
func (dq *DQ) ConsumerDone(i int) int64 { return dq.cons[i].done }

// Delivered returns the total records fully consumed.
func (dq *DQ) Delivered() int64 { return dq.delivered }

// pick selects the target consumer for the next record, or -1 if every
// admissible queue is full.
func (dq *DQ) pick() int {
	switch dq.p.Policy {
	case RoundRobin:
		c := dq.rr % len(dq.cons)
		if dq.cons[c].queued >= dq.p.QueueCap {
			// Head-of-line: strict round-robin waits for exactly this
			// consumer; the cursor must not advance past it.
			return -1
		}
		dq.rr++
		return c
	case RandomChoice:
		c := dq.p.RNG.Intn(len(dq.cons))
		if dq.cons[c].queued >= dq.p.QueueCap {
			return -1
		}
		return c
	case CreditBased:
		best, bestFree := -1, 0
		for i, c := range dq.cons {
			free := dq.p.QueueCap - c.queued
			if free > bestFree {
				best, bestFree = i, free
			}
		}
		return best
	default:
		panic("river: unknown policy")
	}
}

// Produce streams n records through the queue as fast as back-pressure
// allows and calls onDone with the completion time when the last record
// finishes consumption. The caller runs the simulator.
func (dq *DQ) Produce(n int64, onDone func(makespan sim.Duration)) {
	start := dq.s.Now()
	remaining := n
	var push func()
	// A consumed record goes back to free before delivery is counted; each
	// names its consumer in Tag. One a failed consumer abandoned stays out.
	var free sim.FreeRequests
	deliver := func(r *sim.Request) {
		c := r.Tag.(*consumer)
		free.Put(r)
		c.queued--
		c.done++
		dq.delivered++
		if dq.delivered == n {
			onDone(dq.s.Now() - start)
			return
		}
		// Space freed: resume a blocked producer.
		if dq.blocked {
			dq.blocked = false
			push()
		}
	}
	push = func() {
		for remaining > 0 {
			c := dq.pick()
			if c < 0 {
				if dq.tracer != nil && !dq.blocked {
					dq.tracer.Instant(dq.track, "blocked", "river", dq.s.Now())
				}
				dq.blocked = true
				return
			}
			target := dq.cons[c]
			remaining--
			dq.produced++
			target.queued++
			r := free.Take()
			r.Size, r.Tag, r.OnDone = 1, target, deliver
			target.station.Submit(r)
		}
	}
	push()
}

// GDParams configures a graduated-declustering read set: P partitions,
// each mirrored on disks i and (i+1) mod P, read concurrently by P
// readers.
type GDParams struct {
	// Partitions is the number of data partitions (and disks).
	Partitions int
	// PartitionRecords is how many records each reader must consume.
	PartitionRecords int64
	// DiskRate is each disk's nominal service rate, records/second.
	DiskRate float64
	// Graduated selects mirror-proportional reading; false reads each
	// partition only from its primary copy (the static design).
	Graduated bool
	// Window is the per-reader outstanding-request bound per mirror.
	Window int
}

// GD is a graduated-declustering read workload.
type GD struct {
	s     *sim.Simulator
	p     GDParams
	disks []*sim.Station
	comps []*faults.Composite
}

// NewGD builds the disk set.
func NewGD(s *sim.Simulator, p GDParams) *GD {
	if p.Partitions < 2 || p.PartitionRecords < 1 || p.DiskRate <= 0 {
		panic(fmt.Sprintf("river: invalid GD params %+v", p))
	}
	if p.Window < 1 {
		p.Window = 2
	}
	g := &GD{s: s, p: p}
	for i := 0; i < p.Partitions; i++ {
		st := sim.NewStation(s, fmt.Sprintf("gd-disk-%d", i), p.DiskRate)
		g.disks = append(g.disks, st)
		g.comps = append(g.comps, faults.NewComposite(st))
	}
	return g
}

// SetTracer attaches a span tracer to every disk station.
func (g *GD) SetTracer(t *trace.Tracer) {
	for _, d := range g.disks {
		d.SetTracer(t)
	}
}

// DiskComposite exposes disk i's fault target.
func (g *GD) DiskComposite(i int) *faults.Composite { return g.comps[i] }

// Run reads every partition to completion and calls onDone with the
// makespan (the slowest reader) and per-reader finish times. The caller
// runs the simulator.
func (g *GD) Run(onDone func(makespan sim.Duration, finishes []sim.Duration)) {
	start := g.s.Now()
	n := g.p.Partitions
	finishes := make([]sim.Duration, n)
	remainingReaders := n
	for r := 0; r < n; r++ {
		r := r
		primary := g.disks[r]
		mirror := g.disks[(r+1)%n]
		remaining := g.p.PartitionRecords
		inflight := 0
		var pump func()
		complete := func() {
			inflight--
			if remaining == 0 && inflight == 0 {
				finishes[r] = g.s.Now() - start
				remainingReaders--
				if remainingReaders == 0 {
					worst := sim.Duration(0)
					for _, f := range finishes {
						if f > worst {
							worst = f
						}
					}
					onDone(worst, finishes)
				}
				return
			}
			pump()
		}
		// Lane 0 reads the primary copy, lane 1 the mirror. out counts
		// each lane's reads in flight; read records go back to free
		// before their completion runs.
		copies := [2]*sim.Station{primary, mirror}
		var out [2]int
		var free sim.FreeRequests
		var landed [2]func(*sim.Request)
		for lane := range landed {
			landed[lane] = func(req *sim.Request) {
				free.Put(req)
				out[lane]--
				complete()
			}
		}
		issue := func(lane int) {
			remaining--
			inflight++
			out[lane]++
			req := free.Take()
			req.Size, req.OnDone = 1, landed[lane]
			copies[lane].Submit(req)
		}
		// Static: the primary copy serves everything. Graduated: keep a
		// small window open on BOTH mirrors; each copy is consumed at
		// whatever rate it actually delivers, so the partition's read
		// rate is the sum of its mirrors' spare capacity — River's
		// graduated declustering.
		window := [2]int{g.p.Window, 0}
		if g.Graduated() {
			window[1] = g.p.Window
		}
		pump = func() {
			for lane := range copies {
				for remaining > 0 && out[lane] < window[lane] {
					issue(lane)
				}
			}
		}
		pump()
	}
}

// Graduated reports whether mirror-proportional reading is enabled.
func (g *GD) Graduated() bool { return g.p.Graduated }

// IdealMakespan returns the fluid-limit makespan with no faults.
func (g *GD) IdealMakespan() float64 {
	return float64(g.p.PartitionRecords) / g.p.DiskRate
}

// DegradedIdeal returns the fluid-limit makespan when one disk delivers
// factor of its rate, under graduated declustering: the total work is
// spread over (P-1)+factor disk-equivalents and, in the worst case, the
// two partitions sharing the slow disk split its deficit. For the static
// design the slow disk's primary partition simply takes 1/factor longer.
func (g *GD) DegradedIdeal(factor float64) float64 {
	p := float64(g.p.Partitions)
	total := float64(g.p.PartitionRecords) * p
	capacity := (p - 1 + factor) * g.p.DiskRate
	fluid := total / capacity
	if !g.p.Graduated {
		perPartition := float64(g.p.PartitionRecords) / (g.p.DiskRate * factor)
		if perPartition > fluid {
			return perPartition
		}
	}
	return fluid
}
