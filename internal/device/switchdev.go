package device

import (
	"fmt"
	"sort"

	"failstutter/internal/faults"
	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// SwitchParams configures a simulated crossbar switch in the style of the
// Myrinet and CM-5 fabrics the paper surveys.
type SwitchParams struct {
	// Ports is the number of attached nodes (each both sender and
	// receiver).
	Ports int
	// LinkRate is each sender's injection bandwidth, bytes/s.
	LinkRate float64
	// DrainRate is each receiver's nominal drain bandwidth, bytes/s.
	DrainRate float64
	// BufferBytes is the buffering available per output port. When a
	// destination's buffer is full, senders block head-of-line — the flow
	// control mechanism behind the CM-5 transpose collapse.
	BufferBytes float64
	// WireLatency is the one-way propagation delay of every hop between a
	// node and the crossbar: reserve requests, buffer grants and message
	// heads each pay one wire crossing. Zero models an instantaneous
	// fabric.
	WireLatency sim.Duration
}

// Switch is a crossbar connecting Ports nodes. Each output port has a
// bounded buffer drained at the receiver's rate; senders reserve buffer
// space before transmitting and block (head-of-line) when the destination
// is full. Contended buffer space is granted by route weight, modelling
// the Myrinet unfairness observation; equal weights yield FIFO fairness.
//
// Every hop between a sender and an output port is an event one
// WireLatency ahead. Arrivals at an output port pass through its mailbox,
// so same-time arrivals from different senders are handled in sender-key
// order rather than in the order their hops happened to be scheduled.
type Switch struct {
	s      *sim.Simulator
	params SwitchParams
	outs   []*outPort
	sends  []*Sender
}

type outPort struct {
	station  *sim.Station
	comp     *faults.Composite
	mb       *sim.Mailbox // orders same-time arrivals by sender key
	buffered float64
	limit    float64
	waiters  []*bufWaiter
	// delivered tracks bytes fully drained by the receiver.
	delivered float64
}

// bufWaiter is one blocked reservation. Admission order is (weight desc,
// request-arrival time asc, key asc); key embeds (sender port, sender
// event seq).
type bufWaiter struct {
	size   float64
	weight float64
	at     sim.Time
	key    uint64
	grant  func()
}

// NewSwitch builds the switch and its per-node senders on one kernel.
func NewSwitch(s *sim.Simulator, p SwitchParams) *Switch {
	if p.Ports < 2 || p.LinkRate <= 0 || p.DrainRate <= 0 || p.BufferBytes <= 0 || p.WireLatency < 0 {
		panic(fmt.Sprintf("device: invalid switch params %+v", p))
	}
	sw := &Switch{s: s, params: p}
	for i := 0; i < p.Ports; i++ {
		st := sim.NewStation(s, fmt.Sprintf("out-%d", i), p.DrainRate)
		sw.outs = append(sw.outs, &outPort{
			station: st,
			comp:    faults.NewComposite(st),
			mb:      sim.NewMailbox(s),
			limit:   p.BufferBytes,
		})
	}
	for i := 0; i < p.Ports; i++ {
		link := sim.NewStation(s, fmt.Sprintf("link-%d", i), p.LinkRate)
		sw.sends = append(sw.sends, &Sender{
			sw:     sw,
			id:     i,
			link:   link,
			comp:   faults.NewComposite(link),
			weight: 1,
		})
	}
	return sw
}

// SetTracer attaches a span tracer to every port group's stations: the
// sender links ("link-<i>" tracks) and the output-port drains ("out-<i>"
// tracks). A nil tracer detaches.
func (sw *Switch) SetTracer(t *trace.Tracer) {
	for i := range sw.outs {
		sw.outs[i].station.SetTracer(t)
		sw.sends[i].link.SetTracer(t)
	}
}

// Params returns the construction parameters.
func (sw *Switch) Params() SwitchParams { return sw.params }

// Sender returns node i's sender.
func (sw *Switch) Sender(i int) *Sender { return sw.sends[i] }

// ReceiverComposite exposes the fault target for a receiver's drain rate;
// injectors slow or stall the receiver through it.
func (sw *Switch) ReceiverComposite(port int) *faults.Composite {
	return sw.outs[port].comp
}

// DeliveredBytes returns the bytes fully drained at the given receiver.
func (sw *Switch) DeliveredBytes(port int) float64 { return sw.outs[port].delivered }

// TotalDelivered returns bytes drained across all receivers.
func (sw *Switch) TotalDelivered() float64 {
	t := 0.0
	for _, o := range sw.outs {
		t += o.delivered
	}
	return t
}

// FreezeAt schedules a whole-switch freeze: for the duration, no port
// drains and no link transmits. This reproduces the Myrinet
// deadlock-recovery behaviour the paper describes — "halting all switch
// traffic for two seconds".
func (sw *Switch) FreezeAt(at sim.Time, duration sim.Duration) {
	const slot = "switch-freeze"
	sw.s.At(at, func() {
		for i, o := range sw.outs {
			o.comp.Set(slot, 0)
			sw.sends[i].comp.Set(slot, 0)
		}
	})
	sw.s.At(at+duration, func() {
		for i, o := range sw.outs {
			o.comp.Clear(slot)
			sw.sends[i].comp.Clear(slot)
		}
	})
}

// hop runs fn one wire crossing from now.
func (sw *Switch) hop(fn func()) {
	sw.s.At(sw.s.Now()+sw.params.WireLatency, fn)
}

// hopToOut is hop into output port dst's mailbox under key.
func (sw *Switch) hopToOut(dst int, key uint64, fn func()) {
	mb := sw.outs[dst].mb
	sw.hop(func() { mb.Post(key, fn) })
}

// reserve runs at output port dst when a reserve request arrives: it
// calls grant immediately if space is available, otherwise queues the
// request for release to admit.
func (sw *Switch) reserve(dst int, size, weight float64, key uint64, grant func()) {
	o := sw.outs[dst]
	if size > o.limit {
		panic(fmt.Sprintf("device: message of %v bytes exceeds port buffer %v", size, o.limit))
	}
	if o.buffered+size <= o.limit && len(o.waiters) == 0 {
		o.buffered += size
		grant()
		return
	}
	o.waiters = append(o.waiters, &bufWaiter{
		size: size, weight: weight, at: sw.s.Now(), key: key, grant: grant,
	})
}

// release returns drained bytes to the buffer pool and admits waiters,
// highest weight first, then earliest request, then lowest sender key.
func (sw *Switch) release(dst int, size float64) {
	o := sw.outs[dst]
	o.buffered -= size
	o.delivered += size
	for len(o.waiters) > 0 {
		// Pick the best waiter by (weight desc, at asc, key asc).
		best := 0
		for i, w := range o.waiters[1:] {
			cand := w
			cur := o.waiters[best]
			if cand.weight > cur.weight ||
				(cand.weight == cur.weight && (cand.at < cur.at ||
					(cand.at == cur.at && cand.key < cur.key))) {
				best = i + 1
			}
		}
		w := o.waiters[best]
		if o.buffered+w.size > o.limit {
			return
		}
		o.waiters = append(o.waiters[:best], o.waiters[best+1:]...)
		o.buffered += w.size
		w.grant()
	}
}

// Message is one transfer from a sender to a destination port.
type Message struct {
	Dst  int
	Size float64
	// OnDelivered, if non-nil, fires when the receiver finishes draining
	// the message.
	OnDelivered func()
}

// Sender transmits an ordered queue of messages from one node. It is
// strictly in-order: a full destination buffer blocks every message behind
// it (head-of-line blocking).
type Sender struct {
	sw     *Switch
	id     int
	link   *sim.Station
	comp   *faults.Composite
	weight float64

	queue  []Message
	active bool
	onIdle func()
	// evSeq numbers this sender's wire events; with the port id it forms
	// the mailbox/waiter key.
	evSeq uint64

	sent      uint64
	bytesSent float64
}

// ID returns the sender's port number.
func (sd *Sender) ID() int { return sd.id }

// Composite exposes the sender link's fault target.
func (sd *Sender) Composite() *faults.Composite { return sd.comp }

// SetWeight sets the route priority used when competing for contended
// buffer space. The default is 1; higher wins.
func (sd *Sender) SetWeight(w float64) {
	if w <= 0 {
		panic("device: sender weight must be positive")
	}
	sd.weight = w
}

// Sent returns the number of messages fully transmitted onto the fabric.
func (sd *Sender) Sent() uint64 { return sd.sent }

// BytesSent returns bytes fully transmitted onto the fabric.
func (sd *Sender) BytesSent() float64 { return sd.bytesSent }

// Backlog returns the number of unsent queued messages.
func (sd *Sender) Backlog() int { return len(sd.queue) }

// nextKey mints the sender's next event key.
func (sd *Sender) nextKey() uint64 {
	k := uint64(sd.id)<<32 | sd.evSeq
	sd.evSeq++
	return k
}

// Enqueue appends messages to the send queue and starts transmission if
// idle. onIdle (optional, may be nil) replaces any previous idle callback
// and fires when the queue fully drains onto the fabric.
func (sd *Sender) Enqueue(msgs []Message, onIdle func()) {
	for _, m := range msgs {
		if m.Dst < 0 || m.Dst >= len(sd.sw.outs) {
			panic(fmt.Sprintf("device: message to invalid port %d", m.Dst))
		}
		if m.Size <= 0 {
			panic("device: message size must be positive")
		}
		if m.Size > sd.sw.params.BufferBytes {
			panic(fmt.Sprintf("device: message of %v bytes exceeds port buffer %v", m.Size, sd.sw.params.BufferBytes))
		}
	}
	sd.queue = append(sd.queue, msgs...)
	sd.onIdle = onIdle
	if !sd.active {
		sd.active = true
		sd.next()
	}
}

// next advances the in-order send loop. One message crosses the wire
// three times: the reserve request to the output port, the grant back,
// and — once the link has serialized the message — its head, before it
// drains at the receiver.
func (sd *Sender) next() {
	if len(sd.queue) == 0 {
		sd.active = false
		if sd.onIdle != nil {
			cb := sd.onIdle
			sd.onIdle = nil
			cb()
		}
		return
	}
	m := sd.queue[0]
	sd.queue = sd.queue[1:]
	sw := sd.sw
	key := sd.nextKey()
	sw.hopToOut(m.Dst, key, func() {
		sw.reserve(m.Dst, m.Size, sd.weight, key, func() {
			sw.hop(func() {
				sd.link.Submit(&sim.Request{Size: m.Size, OnDone: func(*sim.Request) {
					sd.sent++
					sd.bytesSent += m.Size
					sw.hopToOut(m.Dst, sd.nextKey(), func() {
						sw.outs[m.Dst].station.Submit(&sim.Request{Size: m.Size, OnDone: func(*sim.Request) {
							sw.release(m.Dst, m.Size)
							if m.OnDelivered != nil {
								m.OnDelivered()
							}
						}})
					})
					sd.next()
				}})
			})
		})
	})
}

// SortedBacklogs returns per-sender backlogs, useful for diagnosing which
// routes are starved under unfairness.
func (sw *Switch) SortedBacklogs() []int {
	out := make([]int, len(sw.sends))
	for i, sd := range sw.sends {
		out[i] = sd.Backlog()
	}
	sort.Ints(out)
	return out
}
