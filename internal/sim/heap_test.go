package sim

import "testing"

// refQueue is the kernel's slow reference: every scheduled event in
// schedule order, with a linear scan for the (at, seq) minimum. Schedule
// order is sequence order, so an event's position is its seq.
type refQueue struct {
	at   []Time
	live []bool
}

func (q *refQueue) push(at Time) int {
	q.at = append(q.at, at)
	q.live = append(q.live, true)
	return len(q.at) - 1
}

// min returns the live event that must fire next, or -1.
func (q *refQueue) min() int {
	best := -1
	for i, ok := range q.live {
		if ok && (best < 0 || q.at[i] < q.at[best]) {
			best = i
		}
	}
	return best
}

func (q *refQueue) pending() int {
	n := 0
	for _, ok := range q.live {
		if ok {
			n++
		}
	}
	return n
}

// TestKernelMatchesSortedReferenceProperty runs random programs of At,
// After, Timer.Stop and RunUntil against refQueue. Every fired event must be the
// reference's (at, seq) minimum at that moment, Stop must agree with the
// reference on whether the event was pending, and the pending counts must
// match after every operation. Callbacks schedule and stop events too, so
// arena slots are reused while the heap is mid-run. Times are quantized
// so that ties, broken by sequence, are common.
func TestKernelMatchesSortedReferenceProperty(t *testing.T) {
	for prog := 0; prog < 400; prog++ {
		fatalf := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("program %d: "+format, append([]any{prog}, args...)...)
		}
		rng := NewRNG(uint64(1000 + prog))
		s := New()
		var ref refQueue
		var timers []Timer // timers[id] is event id's handle
		delay := func() Duration { return float64(rng.Intn(8)) * 0.25 }

		var schedule func(at Time, viaAfter bool)
		fire := func(id int) func() {
			return func() {
				if want := ref.min(); id != want {
					fatalf("fired event %d at %v, reference says %d at %v", id, s.Now(), want, ref.at[want])
				}
				if s.Now() != ref.at[id] {
					fatalf("event %d fired with clock %v, scheduled at %v", id, s.Now(), ref.at[id])
				}
				ref.live[id] = false
				switch rng.Intn(4) {
				case 0:
					schedule(s.Now()+delay(), rng.Intn(2) == 0)
				case 1:
					stop(fatalf, rng, timers, &ref)
				}
			}
		}
		schedule = func(at Time, viaAfter bool) {
			id := ref.push(at)
			if viaAfter {
				d := at - s.Now()
				if d == 0 && rng.Intn(2) == 0 {
					d = -1 // negative delays clamp to now
				}
				timers = append(timers, s.After(d, fire(id)))
			} else {
				timers = append(timers, s.At(at, fire(id)))
			}
		}

		for op := 0; op < 120; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				schedule(s.Now()+delay(), k < 2)
			case k < 6:
				stop(fatalf, rng, timers, &ref)
			default:
				until := s.Now() + delay()
				s.RunUntil(until)
				if s.Now() != until {
					fatalf("RunUntil(%v) left the clock at %v", until, s.Now())
				}
				if m := ref.min(); m >= 0 && ref.at[m] <= until {
					fatalf("RunUntil(%v) left event %d at %v queued", until, m, ref.at[m])
				}
			}
			if got, want := s.Pending(), ref.pending(); got != want {
				fatalf("op %d: Pending() = %d, reference %d", op, got, want)
			}
		}
		s.Run()
		if n := ref.pending(); n != 0 || s.Pending() != 0 {
			fatalf("Run left %d kernel and %d reference events pending", s.Pending(), n)
		}
	}
}

// stop cancels a random timer and checks Stop's report against the
// reference.
func stop(fatalf func(string, ...any), rng *RNG, timers []Timer, ref *refQueue) {
	if len(timers) == 0 {
		return
	}
	id := rng.Intn(len(timers))
	tm := timers[id]
	want := ref.live[id]
	if got := tm.Pending(); got != want {
		fatalf("timer %d: Pending() = %v, reference %v", id, got, want)
	}
	if got := tm.Stop(); got != want {
		fatalf("timer %d: Stop() = %v, reference %v", id, got, want)
	}
	if want {
		ref.live[id] = false
	}
	if tm.Stop() {
		fatalf("timer %d: second Stop() reported pending", id)
	}
}
