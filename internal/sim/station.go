package sim

import (
	"fmt"
	"math"

	"failstutter/internal/trace"
)

// Request is one unit of work submitted to a Station. Size is measured in
// the station's work units (bytes for a disk, messages for a link); the
// station drains Size at its current effective rate.
//
// The caller owns a Request: the station drops its reference before it
// calls OnDone, so a caller may reuse one record for a whole stream of
// requests, resubmitting it from inside its own OnDone, because Submit
// resets Enqueued and the remaining work. A request abandoned by Fail
// never reaches OnDone, so its owner cannot tell when the station lets go
// of it; such a record must be left to the garbage collector, not reused.
type Request struct {
	// Size is the amount of work, in station units.
	Size float64
	// Tag is an opaque caller label carried through to completion.
	Tag any
	// OnDone, if non-nil, runs when the request finishes service.
	OnDone func(*Request)
	// ParentSpan optionally links the spans this request generates to a
	// caller-level span (a RAID write, a device access). Zero means root.
	ParentSpan trace.SpanID

	// Enqueued, Started and Finished record the request's timeline.
	Enqueued Time
	Started  Time
	Finished Time

	remaining float64
	// span is the currently open queue or service span for this request;
	// zero when the station has no tracer.
	span trace.SpanID
}

// Wait returns the time the request spent queued before service began.
func (r *Request) Wait() Duration { return r.Started - r.Enqueued }

// Latency returns the total time from submission to completion.
func (r *Request) Latency() Duration { return r.Finished - r.Enqueued }

// FreeRequests is a free list of completed requests, for a caller that
// keeps several in flight: its OnDone puts a request back, and a later
// submit takes it again. The zero value is empty. A request abandoned by
// Fail never completes, so it never comes back.
type FreeRequests []*Request

// Take pops a free request, or makes one when the list is empty. A popped
// request keeps the fields its last user set.
func (f *FreeRequests) Take() *Request {
	k := len(*f)
	if k == 0 {
		return &Request{}
	}
	r := (*f)[k-1]
	*f = (*f)[:k-1]
	return r
}

// Put returns a completed request to the list.
func (f *FreeRequests) Put(r *Request) { *f = append(*f, r) }

// reqRing is a growable FIFO ring buffer of requests. The switch and RAID
// experiments hold thousands of queued requests, so dequeue must be O(1)
// rather than the O(n) slice-shift of copy(q, q[1:]).
type reqRing struct {
	buf  []*Request // capacity is always a power of two (or zero)
	head int
	n    int
}

func (q *reqRing) len() int { return q.n }

func (q *reqRing) push(r *Request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

func (q *reqRing) pop() *Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// grow doubles the capacity, unwrapping the ring into the new buffer.
func (q *reqRing) grow() {
	capNew := len(q.buf) * 2
	if capNew == 0 {
		capNew = 8
	}
	buf := make([]*Request, capNew)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// clear drops every queued request, releasing references for collection.
func (q *reqRing) clear() {
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = nil
	}
	q.head = 0
	q.n = 0
}

// Station is a first-come-first-served single server with a time-varying
// service rate. The effective rate is baseRate x multiplier; a multiplier
// of zero stalls the server (work in progress is preserved and resumes when
// the rate becomes positive again). This is the building block for every
// simulated device: performance faults modulate the multiplier, absolute
// faults fail the station.
type Station struct {
	sim  *Simulator
	name string

	baseRate float64
	mult     float64
	failed   bool

	queue reqRing
	cur   *Request
	timer Timer
	// timerAt is the virtual time the pending completion timer fires at;
	// only meaningful while timer.Pending(). reschedule uses it to skip
	// the Stop/At churn when a rate change leaves the completion time
	// unchanged.
	timerAt Time
	// lastProgress is the time at which cur.remaining was last brought up
	// to date.
	lastProgress Time

	// Accounting.
	busy      Duration // time spent actively serving at a positive rate
	completed uint64
	abandoned uint64
	// queuedWork is the total Size of the requests waiting behind the one
	// in service, maintained incrementally so BacklogWork is O(1).
	queuedWork float64

	// tracer, when non-nil, records queue/service spans and fail/repair
	// instants. Every hot-path touch point guards with an explicit nil
	// check so the disabled path costs one predictable branch and zero
	// allocations.
	tracer *trace.Tracer
	track  trace.TrackID

	// finishFn is st.finish bound once at construction: passing a method
	// value to Simulator.At allocates a closure per call, which would put
	// one hidden allocation on every reschedule of the hot path.
	finishFn func()
}

// NewStation creates a station served at rate units/second.
func NewStation(s *Simulator, name string, rate float64) *Station {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("sim: station %q with invalid rate %v", name, rate))
	}
	st := &Station{sim: s, name: name, baseRate: rate, mult: 1}
	st.finishFn = st.finish
	return st
}

// Name returns the station's identifying label.
func (st *Station) Name() string { return st.name }

// SetTracer attaches a span tracer, recording this station's activity on
// a track named after the station. A nil tracer detaches (the default:
// tracing is off and costs nothing).
func (st *Station) SetTracer(t *trace.Tracer) {
	st.tracer = t
	if t != nil {
		st.track = t.Track(st.name)
	}
}

// BaseRate returns the station's nominal service rate.
func (st *Station) BaseRate() float64 { return st.baseRate }

// Multiplier returns the current fault multiplier.
func (st *Station) Multiplier() float64 { return st.mult }

// EffectiveRate returns the current service rate after fault modulation.
// A failed station has rate zero.
func (st *Station) EffectiveRate() float64 {
	if st.failed {
		return 0
	}
	return st.baseRate * st.mult
}

// QueueLen returns the number of requests waiting behind the one in
// service.
func (st *Station) QueueLen() int { return st.queue.len() }

// InService returns the request currently being served, or nil.
func (st *Station) InService() *Request { return st.cur }

// Completed returns the number of requests fully served.
func (st *Station) Completed() uint64 { return st.completed }

// Abandoned returns the number of requests dropped by Fail.
func (st *Station) Abandoned() uint64 { return st.abandoned }

// BusyTime returns the cumulative time the server spent draining work at a
// positive rate.
func (st *Station) BusyTime() Duration {
	st.progress()
	return st.busy
}

// Utilization returns BusyTime divided by elapsed simulation time.
func (st *Station) Utilization() float64 {
	if st.sim.Now() == 0 {
		return 0
	}
	return st.BusyTime() / st.sim.Now()
}

// Failed reports whether the station has absolutely failed.
func (st *Station) Failed() bool { return st.failed }

// BacklogWork returns the total outstanding work at the station in station
// units: the remaining size of the request in service plus the full size of
// everything queued behind it. It is O(1) — the queue's contribution is
// maintained incrementally on submit/dequeue.
func (st *Station) BacklogWork() float64 {
	st.progress()
	w := st.queuedWork
	if st.cur != nil {
		w += st.cur.remaining
	}
	return w
}

// Occupancy returns the number of requests at the station, counting the one
// in service: the queue-depth signal the profiling probe samples.
func (st *Station) Occupancy() int {
	n := st.queue.len()
	if st.cur != nil {
		n++
	}
	return n
}

// notifyProbe reports an occupancy transition to the simulator's station
// probe, if one is installed. One predictable branch when profiling is off.
func (st *Station) notifyProbe() {
	if p := st.sim.stationProbe; p != nil {
		p(st.sim.now, st)
	}
}

// ServedInCurrent returns the work already drained from the request in
// service at the current instant, or zero when the server is idle. Callers
// probing smooth progress counters (peer-relative detectors sampling
// mid-request) add this to their completed-work tally so a station busy on
// one long request does not look stalled between completions.
func (st *Station) ServedInCurrent() float64 {
	if st.cur == nil {
		return 0
	}
	st.progress()
	return st.cur.Size - st.cur.remaining
}

// Submit enqueues a request. It panics on non-positive sizes, which always
// indicate a workload-generator bug. Requests submitted to a failed station
// are counted as abandoned and their OnDone is never called.
func (st *Station) Submit(r *Request) {
	if r.Size <= 0 || math.IsNaN(r.Size) {
		panic(fmt.Sprintf("sim: station %q request with invalid size %v", st.name, r.Size))
	}
	if st.failed {
		st.abandoned++
		return
	}
	r.Enqueued = st.sim.Now()
	r.remaining = r.Size
	if st.cur == nil {
		st.start(r)
		st.notifyProbe()
		return
	}
	if st.tracer != nil {
		r.span = st.tracer.Begin(st.track, "queue", "station", r.ParentSpan, r.Enqueued)
	}
	st.queue.push(r)
	st.queuedWork += r.Size
	st.notifyProbe()
}

// SetMultiplier changes the fault multiplier, preserving progress on the
// request in service. Multipliers must be finite and non-negative; values
// above 1 model components faster than their nominal specification.
func (st *Station) SetMultiplier(m float64) {
	if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
		panic(fmt.Sprintf("sim: station %q invalid multiplier %v", st.name, m))
	}
	if m == st.mult {
		return
	}
	st.progress()
	st.mult = m
	st.reschedule()
}

// Fail transitions the station to the absolutely-failed state, abandoning
// the queue and any request in service (fail-stop semantics: the component
// stops and does no further work).
func (st *Station) Fail() {
	if st.failed {
		return
	}
	st.progress()
	st.failed = true
	st.stopTimer()
	if st.tracer != nil {
		now := st.sim.Now()
		if st.cur != nil {
			st.tracer.End(st.cur.span, now)
		}
		for i := 0; i < st.queue.n; i++ {
			r := st.queue.buf[(st.queue.head+i)&(len(st.queue.buf)-1)]
			st.tracer.End(r.span, now)
		}
		st.tracer.Instant(st.track, "fail", "station", now)
	}
	if st.cur != nil {
		st.abandoned++
		st.cur = nil
	}
	st.abandoned += uint64(st.queue.len())
	st.queue.clear()
	st.queuedWork = 0
	st.notifyProbe()
}

// Repair returns a failed station to service with an empty queue, modeling
// replacement by a fresh component.
func (st *Station) Repair() {
	if !st.failed {
		return
	}
	st.failed = false
	st.mult = 1
	if st.tracer != nil {
		st.tracer.Instant(st.track, "repair", "station", st.sim.Now())
	}
	// Bring lastProgress up to the repair instant so the downtime between
	// Fail and Repair can never be charged to the first post-repair
	// request's progress or to BusyTime.
	st.lastProgress = st.sim.Now()
}

// progress charges elapsed service time against the current request and
// the busy-time account.
func (st *Station) progress() {
	now := st.sim.Now()
	if st.cur != nil {
		rate := st.EffectiveRate()
		if rate > 0 {
			elapsed := now - st.lastProgress
			st.cur.remaining -= elapsed * rate
			if st.cur.remaining < 0 {
				st.cur.remaining = 0
			}
			st.busy += elapsed
		}
	}
	st.lastProgress = now
}

// start begins service of r immediately.
func (st *Station) start(r *Request) {
	st.cur = r
	r.Started = st.sim.Now()
	st.lastProgress = r.Started
	if st.tracer != nil {
		// Close the queue span (if the request waited) and open the
		// service span in its place.
		st.tracer.End(r.span, r.Started)
		r.span = st.tracer.Begin(st.track, "service", "station", r.ParentSpan, r.Started)
	}
	st.reschedule()
}

// stopTimer cancels the completion timer if one is pending.
func (st *Station) stopTimer() {
	st.timer.Stop()
	st.timer = Timer{}
}

// reschedule (re)computes the completion event for the request in service
// under the current effective rate. It assumes progress() has already run
// at the current instant, so cur.remaining is up to date. When the
// completion time is unchanged the pending timer is kept, avoiding
// Stop/schedule churn on no-op rate transitions.
func (st *Station) reschedule() {
	if st.cur == nil {
		st.stopTimer()
		return
	}
	rate := st.EffectiveRate()
	if rate <= 0 {
		// Stalled: completion will be scheduled when the rate recovers.
		st.stopTimer()
		return
	}
	at := st.sim.Now() + st.cur.remaining/rate
	if st.timer.Pending() && at == st.timerAt {
		return
	}
	st.stopTimer()
	st.timer = st.sim.At(at, st.finishFn)
	st.timerAt = at
}

// finish completes the request in service and starts the next one.
func (st *Station) finish() {
	st.progress()
	r := st.cur
	st.cur = nil
	st.timer = Timer{}
	if r == nil {
		return
	}
	r.Finished = st.sim.Now()
	st.completed++
	if st.tracer != nil {
		st.tracer.End(r.span, r.Finished)
		r.span = 0
	}
	if st.queue.len() > 0 {
		next := st.queue.pop()
		st.queuedWork -= next.Size
		st.start(next)
	}
	st.notifyProbe()
	if r.OnDone != nil {
		r.OnDone(r)
	}
}
