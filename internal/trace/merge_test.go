package trace

import (
	"bytes"
	"testing"
)

// chromeBytes renders the tracer's chrome trace for byte comparison.
func chromeBytes(t *testing.T, tr *Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return buf.Bytes()
}

func TestShardTracerIDsAreGloballyUnique(t *testing.T) {
	shards := []*Tracer{NewShardTracer(0), NewShardTracer(1), NewShardTracer(7)}
	seen := make(map[SpanID]bool)
	for _, tr := range shards {
		tk := tr.Track("t")
		for i := 0; i < 100; i++ {
			id := tr.Begin(tk, "s", "c", 0, float64(i))
			if id == 0 {
				t.Fatal("allocated span id 0")
			}
			if seen[id] {
				t.Fatalf("span id %d allocated twice across shards", id)
			}
			seen[id] = true
		}
	}
	// A plain tracer's ids live in the zero-qualifier space and must not
	// collide with any shard's.
	plain := NewTracer()
	tk := plain.Track("t")
	for i := 0; i < 100; i++ {
		if id := plain.Begin(tk, "s", "c", 0, float64(i)); seen[id] {
			t.Fatalf("plain tracer id %d collides with a shard id", id)
		}
	}
}

func TestEndIgnoresForeignCollectorIDs(t *testing.T) {
	a, b := NewShardTracer(0), NewShardTracer(1)
	ta, tb := a.Track("x"), b.Track("x")
	ida := a.Begin(ta, "s", "c", 0, 1)
	idb := b.Begin(tb, "s", "c", 0, 1)
	a.End(idb, 2) // foreign id: must not close a's span
	b.End(ida, 2)
	if !a.Spans()[0].Open() || !b.Spans()[0].Open() {
		t.Fatal("a foreign collector's id closed a span")
	}
	a.End(ida, 3)
	if a.Spans()[0].End != 3 {
		t.Fatal("own id failed to close after foreign-id attempt")
	}
}

// TestTracerMergePlacementInvariant is the core contract: recording the
// same per-track streams on one collector or split across two, then
// merging, must yield byte-identical exports.
func TestTracerMergePlacementInvariant(t *testing.T) {
	// record writes the same logical telemetry, with each track directed
	// to pick(track)'s collector.
	record := func(pick func(track string) *Tracer) {
		for i := 0; i < 40; i++ {
			name := []string{"disk-0", "disk-1", "disk-2"}[i%3]
			tr := pick(name)
			tk := tr.Track(name)
			id := tr.BeginArg(tk, "write", "disk", 0, float64(i)*0.25, int64(i))
			tr.End(id, float64(i)*0.25+0.1)
			if i%5 == 0 {
				tr.Instant(tk, "mark", "disk", float64(i)*0.25+0.05)
			}
		}
	}

	one := NewShardTracer(0)
	record(func(string) *Tracer { return one })
	one.Flush(10)
	single := NewTracer()
	single.Merge(one)

	s0, s1 := NewShardTracer(0), NewShardTracer(1)
	record(func(track string) *Tracer {
		if track == "disk-1" {
			return s1
		}
		return s0
	})
	s0.Flush(10)
	s1.Flush(10)
	split := NewTracer()
	split.Merge(s0, s1)

	if got, want := chromeBytes(t, split), chromeBytes(t, single); !bytes.Equal(got, want) {
		t.Fatalf("merged trace differs by placement:\n--- split across 2 collectors\n%s\n--- single collector\n%s", got, want)
	}
}

func TestTracerMergeRemapsParents(t *testing.T) {
	p := NewShardTracer(3)
	tk := p.Track("t")
	root := p.Begin(tk, "root", "c", 0, 1)
	child := p.Begin(tk, "child", "c", root, 2)
	p.End(child, 3)
	p.End(root, 4)

	dst := NewTracer()
	dst.Merge(p)
	spans := dst.Spans()
	if len(spans) != 2 {
		t.Fatalf("merged %d spans, want 2", len(spans))
	}
	if spans[0].ID != 1 || spans[1].ID != 2 {
		t.Fatalf("merged ids not dense: %d, %d", spans[0].ID, spans[1].ID)
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("child parent = %d, want remapped root id %d", spans[1].Parent, spans[0].ID)
	}
	// The part is untouched: its span ids still carry the shard qualifier.
	if p.Spans()[0].ID == spans[0].ID {
		t.Fatal("merge mutated the part's span ids")
	}
}

func TestTracerMergeAppliesDstOffset(t *testing.T) {
	p := NewShardTracer(0)
	tk := p.Track("t")
	p.End(p.Begin(tk, "s", "c", 0, 1), 2)

	dst := NewTracer()
	dst.Rebase(100)
	dst.Merge(p)
	sp := dst.Spans()[0]
	if sp.Start != 101 || sp.End != 102 {
		t.Fatalf("merged span at [%g,%g], want [101,102]", sp.Start, sp.End)
	}
}

// recordFRLoad drives count spans across the picked collectors: many
// tracks, deterministic times, a few instants.
func recordFRLoad(count int, pick func(i int) *Tracer) {
	for i := 0; i < count; i++ {
		name := []string{"disk-0", "disk-1", "disk-2", "disk-3"}[i%4]
		tr := pick(i % 4)
		tk := tr.Track(name)
		id := tr.Begin(tk, "write", "disk", 0, float64(i)*0.5)
		tr.End(id, float64(i)*0.5+0.25)
		if i%17 == 0 {
			tr.Instant(tk, "mark", "disk", float64(i)*0.5)
		}
	}
}

func TestFlightRecorderMergePlacementInvariant(t *testing.T) {
	cfg := RecorderConfig{Ring: 32, Reservoir: 16, Seed: 0xfeedface}

	one := NewShardTracer(0)
	one.SetFlightRecorder(cfg)
	recordFRLoad(500, func(int) *Tracer { return one })
	one.Flush(1000)
	single := NewTracer()
	single.SetFlightRecorder(cfg)
	single.Merge(one)

	parts := make([]*Tracer, 4)
	for i := range parts {
		parts[i] = NewShardTracer(i)
		parts[i].SetFlightRecorder(cfg)
	}
	recordFRLoad(500, func(i int) *Tracer { return parts[i] })
	for _, p := range parts {
		p.Flush(1000)
	}
	split := NewTracer()
	split.SetFlightRecorder(cfg)
	split.Merge(parts[0], parts[1], parts[2], parts[3])

	if got, want := chromeBytes(t, split), chromeBytes(t, single); !bytes.Equal(got, want) {
		t.Fatalf("flight-recorder merge differs by placement:\n--- 4 collectors\n%s\n--- 1 collector\n%s", got, want)
	}
	if single.Recorded() != split.Recorded() {
		t.Fatalf("recorded counts differ: %d vs %d", single.Recorded(), split.Recorded())
	}
	// ~530 recorded, bounded retention.
	if single.Recorded() < 500 {
		t.Fatalf("recorded = %d, want >= 500", single.Recorded())
	}
	if single.Len() > cfg.Ring+cfg.Reservoir {
		t.Fatalf("retained %d spans, bound is %d", single.Len(), cfg.Ring+cfg.Reservoir)
	}
}

func TestFlightRecorderReservoirSeedDeterminism(t *testing.T) {
	run := func(seed uint64) []Span {
		tr := NewShardTracer(0)
		tr.SetFlightRecorder(RecorderConfig{Reservoir: 8, Seed: seed})
		recordFRLoad(300, func(int) *Tracer { return tr })
		tr.Flush(1000)
		return tr.Spans()
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed, different sample sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("reservoir sample identical under different seeds — seed is not driving selection")
	}
}

func TestFlightRecorderRingKeepsMostRecent(t *testing.T) {
	tr := NewTracer()
	tr.SetFlightRecorder(RecorderConfig{Ring: 4})
	tk := tr.Track("t")
	for i := 0; i < 20; i++ {
		tr.End(tr.Begin(tk, "s", "c", 0, float64(i)), float64(i)+0.5)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := float64(16 + i); sp.Start != want {
			t.Fatalf("ring span %d starts at %g, want %g (most recent 4)", i, sp.Start, want)
		}
	}
	if tr.Recorded() != 20 {
		t.Fatalf("recorded = %d, want 20", tr.Recorded())
	}
}

func TestFlightRecorderSlotReuseRejectsStaleEnd(t *testing.T) {
	tr := NewTracer()
	tr.SetFlightRecorder(RecorderConfig{Ring: 8})
	tk := tr.Track("t")
	id1 := tr.Begin(tk, "a", "c", 0, 1)
	tr.End(id1, 2)
	id2 := tr.Begin(tk, "b", "c", 0, 3) // reuses id1's slot with a new generation
	if id1 == id2 {
		t.Fatal("slot reuse produced a duplicate id")
	}
	tr.End(id1, 99) // stale: must not close id2's span
	tr.End(id2, 4)
	for _, sp := range tr.Spans() {
		if sp.Name == "b" && sp.End != 4 {
			t.Fatalf("stale End corrupted reused slot: %+v", sp)
		}
	}
}

func TestSetFlightRecorderRequiresFreshTracer(t *testing.T) {
	tr := NewTracer()
	tr.End(tr.Begin(tr.Track("t"), "s", "c", 0, 1), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetFlightRecorder on a used tracer did not panic")
		}
	}()
	tr.SetFlightRecorder(RecorderConfig{Ring: 4})
}
