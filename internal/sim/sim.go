// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, a cancelable event queue, seeded random-number streams,
// and first-come-first-served queueing stations with time-varying service
// rates.
//
// All device-level experiments in this repository (disks, switches, RAID
// arrays) run on this kernel so that months of simulated operation complete
// in milliseconds and every run is reproducible from a seed.
//
// The kernel is built for the hot path: events live in a pooled arena and
// are ordered by a hand-rolled 4-ary min-heap whose entries carry their
// (time, sequence) key inline, so ordering never touches the arena, a
// schedule/fire cycle performs no heap allocation in steady state, and no
// interface boxing ever happens. Timer handles are values carrying a
// generation counter, which keeps them safe against arena slot reuse: a
// handle whose event has fired, been stopped, or whose slot now holds a
// newer event reports not-pending and refuses to stop the newcomer.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in seconds since the start of
// the simulation.
type Time = float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// event is a scheduled callback, stored in the simulator's arena. Its
// ordering key lives in its heap entry, not here.
type event struct {
	fn func()
	// pos is the event's position in the heap, -1 once fired or stopped.
	pos int32
	// gen increments every time the arena slot is released, invalidating
	// any Timer handles that still point at the slot.
	gen uint32
}

// Timer is a value handle to a scheduled event that can be canceled before
// it fires. The zero Timer is valid and behaves as an already-expired
// timer. Handles stay safe after their event fires or is stopped, even if
// the underlying arena slot is reused for a later event.
type Timer struct {
	s   *Simulator
	idx int32
	gen uint32
}

// Stop cancels the timer, removes the event from the queue, and releases
// the captured closure immediately. It reports whether the event was still
// pending; it returns false if the event already fired or was already
// stopped.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	ev := &t.s.arena[t.idx]
	if ev.gen != t.gen || ev.pos < 0 {
		return false
	}
	t.s.removeAt(int(ev.pos))
	t.s.release(t.idx)
	return true
}

// Pending reports whether the timer's event has yet to fire.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	ev := &t.s.arena[t.idx]
	return ev.gen == t.gen && ev.pos >= 0
}

// heapEntry is one live event in the heap: its ordering key inline and
// its arena slot. Events are ordered by time, with ties broken by
// insertion sequence so that execution order is deterministic.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// before orders heap entries by (at, seq).
func (e *heapEntry) before(o *heapEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// heapArity is the branching factor of the event heap. A 4-ary heap halves
// the tree depth of a binary heap, trading slightly more comparisons per
// level for fewer cache-missing swaps — a win for the sift-down-dominated
// pop path.
const heapArity = 4

// StationProbe observes station occupancy transitions: it is called after
// every change to a station's queue or in-service state (submit, completion,
// failure), with the virtual time of the transition. Probes are the
// profiling plane's sampling hook — they must not mutate the station or
// schedule events.
type StationProbe func(now Time, st *Station)

// Simulator owns the virtual clock and the pending-event queue.
// The zero value is not ready for use; call New.
type Simulator struct {
	now Time
	// arena holds every event slot ever allocated; free lists the slots
	// currently available for reuse; heap holds the live (scheduled,
	// unstopped) events ordered by (at, seq).
	arena   []event
	free    []int32
	heap    []heapEntry
	seq     uint64
	stopped bool
	fired   uint64

	// stationProbe, when non-nil, is invoked on every station occupancy
	// transition in this simulation. Each transition costs one nil check
	// when no probe is installed.
	stationProbe StationProbe
}

// New returns a simulator with the clock at time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// SetStationProbe installs (or, with nil, removes) the probe called on
// every station occupancy transition. Exactly one probe can be active per
// simulator; the profiling plane installs one that samples queue depth and
// backlog into time series.
func (s *Simulator) SetStationProbe(p StationProbe) { s.stationProbe = p }

// EventsFired returns the number of events executed so far, a useful
// determinism check in tests.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// Pending returns the number of live events still queued. Stopped events
// are removed from the queue eagerly, so they never inflate this count.
func (s *Simulator) Pending() int { return len(s.heap) }

// alloc takes a slot from the free list (or grows the arena) for a new
// event at t and returns its heap entry, stamped with the next sequence
// number.
func (s *Simulator) alloc(t Time, fn func()) heapEntry {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, event{})
		idx = int32(len(s.arena) - 1)
	}
	s.arena[idx].fn = fn
	e := heapEntry{at: t, seq: s.seq, idx: idx}
	s.seq++
	return e
}

// release returns a slot to the free list, dropping the closure so it can
// be collected immediately and bumping the generation so stale Timer
// handles go dead.
func (s *Simulator) release(idx int32) {
	ev := &s.arena[idx]
	ev.fn = nil
	ev.pos = -1
	ev.gen++
	s.free = append(s.free, idx)
}

// siftUp restores heap order from position i toward the root.
func (s *Simulator) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.before(&s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.arena[s.heap[i].idx].pos = int32(i)
		i = parent
	}
	s.heap[i] = e
	s.arena[e.idx].pos = int32(i)
}

// siftDown restores heap order from position i toward the leaves.
func (s *Simulator) siftDown(i int) {
	e := s.heap[i]
	n := len(s.heap)
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.heap[c].before(&s.heap[best]) {
				best = c
			}
		}
		if !s.heap[best].before(&e) {
			break
		}
		s.heap[i] = s.heap[best]
		s.arena[s.heap[i].idx].pos = int32(i)
		i = best
	}
	s.heap[i] = e
	s.arena[e.idx].pos = int32(i)
}

// removeAt deletes the heap entry at position i, preserving heap order.
func (s *Simulator) removeAt(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.heap[i] = last
	s.arena[last.idx].pos = int32(i)
	s.siftDown(i)
	s.siftUp(i)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a logic error in the caller, and silently
// clamping would hide it.
func (s *Simulator) At(t Time, fn func()) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: schedule at non-finite time %v", t))
	}
	e := s.alloc(t, fn)
	i := len(s.heap)
	s.heap = append(s.heap, e)
	s.siftUp(i)
	return Timer{s: s, idx: e.idx, gen: s.arena[e.idx].gen}
}

// After schedules fn to run d seconds from now. A non-positive d runs the
// event at the current time, after events already queued for this instant.
func (s *Simulator) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Stop halts the run loop after the currently executing event returns.
// Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// step pops and executes the next event. It reports false when the queue is
// empty. Stopped events never reach here: Timer.Stop removes them eagerly.
func (s *Simulator) step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.heap[0]
	s.removeAt(0)
	s.now = e.at
	fn := s.arena[e.idx].fn
	s.release(e.idx)
	s.fired++
	fn()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.step() {
	}
}

// nextAt returns the time of the earliest queued event, or +Inf when the
// queue is empty. The sharded coordinator polls it to pick each safe
// window's base time.
func (s *Simulator) nextAt() Time {
	if len(s.heap) == 0 {
		return math.Inf(1)
	}
	return s.heap[0].at
}

// runWindow executes every queued event with time strictly before h and
// not after limit, leaving the clock at the last executed event. It is the
// per-shard body of the sharded coordinator's safe window: events at or
// beyond the horizon h belong to a later window, after the barrier hook at
// h has run.
func (s *Simulator) runWindow(h, limit Time) {
	for len(s.heap) > 0 {
		at := s.heap[0].at
		if at >= h || at > limit {
			return
		}
		s.step()
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t. Events scheduled after t remain queued.
func (s *Simulator) RunUntil(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, s.now))
	}
	s.stopped = false
	for !s.stopped && len(s.heap) > 0 && s.heap[0].at <= t {
		s.step()
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
}
