package sim

import "sort"

// Mailbox orders same-time arrivals at one component by a caller-supplied
// key. Events at one instant run in the order they were scheduled, which
// is rarely the order a component wants to arbitrate them in — a switch
// port wants contending senders in sender order, not in the order their
// wire hops happened to be queued. Such a component posts each arrival
// into its mailbox instead of acting on it directly. The first post at an
// instant schedules one drain event at that instant; its sequence number
// exceeds every event already queued for the instant, so the drain runs
// after all of them and replays the posts sorted by key. Arrivals that
// were scheduled before the instant began — any hop with positive latency
// — therefore land in one batch. A post made after the drain has run
// starts a fresh batch with its own drain. Keys must be unique per
// instant (the idiom is senderID<<32 | senderSeq).
type Mailbox struct {
	s         *Simulator
	pending   []mailboxItem
	scheduled bool
}

type mailboxItem struct {
	key uint64
	fn  func()
}

// NewMailbox builds a mailbox draining on the given kernel.
func NewMailbox(s *Simulator) *Mailbox { return &Mailbox{s: s} }

// Post enqueues fn under key at the current instant; the drain at the end
// of this instant runs all posts in ascending key order.
func (m *Mailbox) Post(key uint64, fn func()) {
	m.pending = append(m.pending, mailboxItem{key: key, fn: fn})
	if !m.scheduled {
		m.scheduled = true
		m.s.At(m.s.now, m.drain)
	}
}

// drain replays the pending posts in key order and resets the mailbox.
func (m *Mailbox) drain() {
	m.scheduled = false
	items := m.pending
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })
	// Detach before running: a post during replay starts a fresh batch
	// with its own drain, in a fresh buffer.
	m.pending = nil
	for i := range items {
		items[i].fn()
		items[i].fn = nil
	}
	if m.pending == nil {
		m.pending = items[:0]
	}
}
