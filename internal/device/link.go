package device

import (
	"fmt"

	"failstutter/internal/faults"
	"failstutter/internal/sim"
)

// Link is a point-to-point network link: messages are serialized at the
// link bandwidth, then delivered after a propagation latency. Performance
// faults modulate the serialization rate.
type Link struct {
	station *sim.Station
	comp    *faults.Composite
	s       *sim.Simulator
	latency sim.Duration

	bytesDone float64
	delivered uint64
	// free lists delivered message records for reuse, chained through
	// their next fields.
	free *linkMsg
}

// NewLink creates a link with the given bandwidth (bytes/s) and one-way
// propagation latency (seconds).
func NewLink(s *sim.Simulator, name string, bandwidth float64, latency sim.Duration) *Link {
	if latency < 0 {
		panic(fmt.Sprintf("device: link %q negative latency", name))
	}
	l := &Link{
		station: sim.NewStation(s, name, bandwidth),
		s:       s,
		latency: latency,
	}
	l.comp = faults.NewComposite(l.station)
	return l
}

// Composite exposes the fault target for injectors.
func (l *Link) Composite() *faults.Composite { return l.comp }

// Failed reports absolute failure.
func (l *Link) Failed() bool { return l.station.Failed() }

// BytesDelivered returns total bytes that completed delivery.
func (l *Link) BytesDelivered() float64 { return l.bytesDone }

// Delivered returns the count of delivered messages.
func (l *Link) Delivered() uint64 { return l.delivered }

// Send transmits `bytes` over the link; onDelivered (if non-nil) fires
// after serialization plus propagation.
func (l *Link) Send(bytes float64, onDelivered func(latency float64)) {
	m := l.takeMsg()
	m.req = sim.Request{Size: bytes, Tag: m, OnDone: linkMsgSent}
	m.start = l.s.Now()
	m.onDelivered = onDelivered
	l.station.Submit(&m.req)
}

// linkMsg is one message in flight, from serialization to delivery. Like
// diskOp it comes from the link's free list and goes back before the
// caller's callback runs; a message abandoned by Fail is left to the
// garbage collector.
type linkMsg struct {
	req         sim.Request // Tag holds the message itself
	l           *Link
	next        *linkMsg // the link's free list
	start       sim.Time
	onDelivered func(latency float64)
	// deliverFn is m.deliver bound once.
	deliverFn func()
}

// takeMsg pops a free message record or makes one.
func (l *Link) takeMsg() *linkMsg {
	m := l.free
	if m == nil {
		m = &linkMsg{l: l}
		m.deliverFn = m.deliver
		return m
	}
	l.free, m.next = m.next, nil
	return m
}

// linkMsgSent is the OnDone of every message request: the link has
// serialized the message, which then crosses the wire.
func linkMsgSent(r *sim.Request) {
	m := r.Tag.(*linkMsg)
	m.l.s.After(m.l.latency, m.deliverFn)
}

// deliver completes the message: accounting, then the record's release,
// then the caller's callback.
func (m *linkMsg) deliver() {
	l := m.l
	l.bytesDone += m.req.Size
	l.delivered++
	latency, onDelivered := l.s.Now()-m.start, m.onDelivered
	m.onDelivered = nil
	poisonRequest(&m.req, poisonedLinkMsg)
	m.next, l.free = l.free, m
	if onDelivered != nil {
		onDelivered(latency)
	}
}
