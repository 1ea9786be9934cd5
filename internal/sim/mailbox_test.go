package sim

import "testing"

// TestMailboxOrdersSameTimeDeliveries schedules same-instant arrivals in
// scrambled key order and checks the drain replays them in key order. One
// replayed post makes another post during the drain, which must start a
// fresh batch: it runs at the same instant, after the whole first batch,
// under a drain of its own.
func TestMailboxOrdersSameTimeDeliveries(t *testing.T) {
	s := New()
	mb := NewMailbox(s)
	type replay struct {
		key uint64
		at  Time
	}
	var got []replay
	post := func(key uint64) {
		mb.Post(key, func() {
			got = append(got, replay{key, s.Now()})
			if key == 1 {
				// Lower than every key of the running batch: joining it
				// would replay it next, a fresh batch replays it last.
				mb.Post(0, func() { got = append(got, replay{0, s.Now()}) })
			}
		})
	}
	for _, key := range []uint64{4, 1, 6, 3, 2, 5} {
		key := key
		s.At(2, func() { post(key) })
	}
	s.Run()
	want := []uint64{1, 2, 3, 4, 5, 6, 0}
	if len(got) != len(want) {
		t.Fatalf("drains replayed %d posts, want %d: %v", len(got), len(want), got)
	}
	for i, k := range want {
		if got[i].key != k || got[i].at != 2 {
			t.Fatalf("position %d replayed key %d at %v, want key %d at 2 (order %v)", i, got[i].key, got[i].at, k, got)
		}
	}
	// Six arrivals plus one drain per batch.
	if fired := s.EventsFired(); fired != 8 {
		t.Fatalf("fired %d events, want 8: the in-drain post did not get its own drain", fired)
	}
}
