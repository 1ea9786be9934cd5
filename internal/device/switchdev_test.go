package device

import (
	"fmt"
	"math"
	"testing"

	"failstutter/internal/sim"
)

func testSwitch(s *sim.Simulator, ports int) *Switch {
	return NewSwitch(s, SwitchParams{
		Ports:       ports,
		LinkRate:    100, // bytes/s
		DrainRate:   100,
		BufferBytes: 50,
	})
}

func TestLinkDelivery(t *testing.T) {
	s := sim.New()
	l := NewLink(s, "l0", 100, 0.5)
	var lat float64
	l.Send(200, func(d float64) { lat = d })
	s.Run()
	// 200 bytes at 100 B/s + 0.5 s propagation = 2.5 s.
	if math.Abs(lat-2.5) > 1e-9 {
		t.Fatalf("latency = %v, want 2.5", lat)
	}
	if l.BytesDelivered() != 200 || l.Delivered() != 1 {
		t.Fatalf("delivered = %v/%d", l.BytesDelivered(), l.Delivered())
	}
}

func TestSwitchSimpleDelivery(t *testing.T) {
	s := sim.New()
	sw := testSwitch(s, 2)
	delivered := false
	sw.Sender(0).Enqueue([]Message{{Dst: 1, Size: 10, OnDelivered: func() { delivered = true }}}, nil)
	s.Run()
	if !delivered {
		t.Fatal("message not delivered")
	}
	if sw.DeliveredBytes(1) != 10 {
		t.Fatalf("delivered bytes = %v", sw.DeliveredBytes(1))
	}
	if sw.Sender(0).Sent() != 1 {
		t.Fatalf("sent = %d", sw.Sender(0).Sent())
	}
}

func TestSwitchInOrderPerSender(t *testing.T) {
	s := sim.New()
	sw := testSwitch(s, 2)
	var order []int
	msgs := make([]Message, 5)
	for i := range msgs {
		i := i
		msgs[i] = Message{Dst: 1, Size: 10, OnDelivered: func() { order = append(order, i) }}
	}
	sw.Sender(0).Enqueue(msgs, nil)
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v not FIFO", order)
		}
	}
}

func TestSwitchOnIdleFires(t *testing.T) {
	s := sim.New()
	sw := testSwitch(s, 2)
	idle := false
	sw.Sender(0).Enqueue([]Message{{Dst: 1, Size: 10}, {Dst: 1, Size: 10}}, func() { idle = true })
	s.Run()
	if !idle {
		t.Fatal("onIdle did not fire")
	}
	if sw.Sender(0).Backlog() != 0 {
		t.Fatal("backlog not drained")
	}
}

func TestSwitchHOLBlockingOnSlowReceiver(t *testing.T) {
	// Port 1's receiver is 100x slower. Sender 0 sends to port 1 first,
	// then to port 2; the second message is head-of-line blocked even
	// though port 2 is idle.
	s := sim.New()
	sw := testSwitch(s, 3)
	sw.ReceiverComposite(1).Set("slow", 0.01)

	var fastDelivered sim.Time
	// Fill port 1's buffer (50 bytes) plus one more to force blocking.
	msgs := []Message{
		{Dst: 1, Size: 40},
		{Dst: 1, Size: 40}, // must wait for buffer space (40+40 > 50)
		{Dst: 2, Size: 10, OnDelivered: func() { fastDelivered = s.Now() }},
	}
	sw.Sender(0).Enqueue(msgs, nil)
	s.Run()
	// Without blocking, the 10-byte message to the idle port would arrive
	// in well under a second. With HOL blocking it waits for the slow
	// receiver to drain 40 bytes at 1 B/s => tens of seconds.
	if fastDelivered < 10 {
		t.Fatalf("fast-port message arrived at %v; HOL blocking absent", fastDelivered)
	}
}

func TestSwitchWeightedUnfairness(t *testing.T) {
	// Two senders compete for one congested receiver; the favoured route
	// should complete far more traffic by a fixed horizon.
	s := sim.New()
	sw := NewSwitch(s, SwitchParams{Ports: 3, LinkRate: 1000, DrainRate: 10, BufferBytes: 20})
	sw.Sender(0).SetWeight(10)
	sw.Sender(1).SetWeight(1)
	mk := func(n int) []Message {
		ms := make([]Message, n)
		for i := range ms {
			ms[i] = Message{Dst: 2, Size: 10}
		}
		return ms
	}
	sw.Sender(0).Enqueue(mk(100), nil)
	sw.Sender(1).Enqueue(mk(100), nil)
	s.RunUntil(100) // receiver drains ~100 bytes = ~10 messages total
	s0, s1 := sw.Sender(0).Sent(), sw.Sender(1).Sent()
	if s0 <= s1*2 {
		t.Fatalf("favoured sender %d vs disfavoured %d: unfairness absent", s0, s1)
	}
}

func TestSwitchFairWithEqualWeights(t *testing.T) {
	s := sim.New()
	sw := NewSwitch(s, SwitchParams{Ports: 3, LinkRate: 1000, DrainRate: 10, BufferBytes: 20})
	mk := func(n int) []Message {
		ms := make([]Message, n)
		for i := range ms {
			ms[i] = Message{Dst: 2, Size: 10}
		}
		return ms
	}
	sw.Sender(0).Enqueue(mk(50), nil)
	sw.Sender(1).Enqueue(mk(50), nil)
	s.RunUntil(200)
	s0, s1 := float64(sw.Sender(0).Sent()), float64(sw.Sender(1).Sent())
	if math.Abs(s0-s1) > math.Max(2, 0.2*(s0+s1)/2) {
		t.Fatalf("equal-weight senders diverged: %v vs %v", s0, s1)
	}
}

func TestSwitchFreeze(t *testing.T) {
	s := sim.New()
	sw := testSwitch(s, 2)
	var done sim.Time
	sw.Sender(0).Enqueue([]Message{{Dst: 1, Size: 50, OnDelivered: func() { done = s.Now() }}}, nil)
	// Without freeze: 0.5 s link + 0.5 s drain = 1 s. Freeze 2 s in the
	// middle.
	sw.FreezeAt(0.25, 2)
	s.Run()
	if done < 2.9 {
		t.Fatalf("delivery at %v; freeze did not stall traffic", done)
	}
}

func TestSwitchOversizeMessagePanics(t *testing.T) {
	s := sim.New()
	sw := testSwitch(s, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize message did not panic")
		}
	}()
	sw.Sender(0).Enqueue([]Message{{Dst: 1, Size: 1000}}, nil)
	s.Run()
}

func TestSwitchInvalidDestPanics(t *testing.T) {
	s := sim.New()
	sw := testSwitch(s, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid destination did not panic")
		}
	}()
	sw.Sender(0).Enqueue([]Message{{Dst: 7, Size: 1}}, nil)
}

func TestSwitchConservation(t *testing.T) {
	// All enqueued bytes are eventually delivered, once, regardless of
	// contention.
	s := sim.New()
	sw := NewSwitch(s, SwitchParams{Ports: 4, LinkRate: 500, DrainRate: 50, BufferBytes: 30})
	total := 0.0
	for i := 0; i < 4; i++ {
		var msgs []Message
		for j := 0; j < 20; j++ {
			dst := (i + 1 + j) % 4
			if dst == i {
				dst = (dst + 1) % 4
			}
			msgs = append(msgs, Message{Dst: dst, Size: 10})
			total += 10
		}
		sw.Sender(i).Enqueue(msgs, nil)
	}
	s.Run()
	if math.Abs(sw.TotalDelivered()-total) > 1e-9 {
		t.Fatalf("delivered %v of %v bytes", sw.TotalDelivered(), total)
	}
}

func TestSwitchWireLatency(t *testing.T) {
	// Dyadic parameters keep every event time exact: L = 0.25 s per hop,
	// S/LinkRate = 0.25 s, S/DrainRate = 0.5 s.
	const (
		wire = 0.25
		size = 100.0
		link = 400.0
		drn  = 200.0
	)
	p := SwitchParams{Ports: 3, LinkRate: link, DrainRate: drn, BufferBytes: size, WireLatency: wire}

	// One message pays three wire crossings (reserve, grant, head) plus
	// serialization and drain.
	s := sim.New()
	sw := NewSwitch(s, p)
	var at sim.Time
	sw.Sender(0).Enqueue([]Message{{Dst: 1, Size: size, OnDelivered: func() { at = s.Now() }}}, nil)
	s.Run()
	if want := 3*wire + size/link + size/drn; at != want {
		t.Fatalf("delivered at %v, want exactly %v", at, want)
	}

	// Port 2 holds one message. Senders 1 and 0 request it at the same
	// instant with equal weights — sender 1's request scheduled first —
	// into an empty port and into one sender 2 has already filled. Either
	// way the grants follow sender key order, not scheduling order.
	for _, prefill := range []bool{false, true} {
		s := sim.New()
		sw := NewSwitch(s, p)
		var order []int
		send := func(i int) {
			sw.Sender(i).Enqueue([]Message{{Dst: 2, Size: size, OnDelivered: func() { order = append(order, i) }}}, nil)
		}
		want := "[0 1]"
		if prefill {
			send(2)
			want = "[2 0 1]"
		}
		s.At(wire/2, func() { send(1); send(0) })
		s.Run()
		if got := fmt.Sprint(order); got != want {
			t.Fatalf("prefill %v: delivery order %s, want %s", prefill, got, want)
		}
	}
}
