package trace

import "sort"

// This file is the deterministic merge layer: per-shard tracers fold
// into one destination tracer whose exported trace is byte-identical at
// any shard count. The contract the merge follows:
//
//   - ordering keys are placement-invariant — start time, track name,
//     per-track begin sequence — never record order, shard index, or map
//     iteration;
//   - merging N parts into an empty destination commutes with having
//     recorded everything on one collector.

// sortEntries orders retained completions canonically: by start time,
// then track name, then the track's begin sequence, then merge epoch.
// Each track records on exactly one collector per sub-run, so the key is
// a strict total order over any one merge batch.
func sortEntries(ents []frEntry) {
	sort.Slice(ents, func(i, j int) bool {
		a, b := ents[i], ents[j]
		if a.span.Start != b.span.Start {
			return a.span.Start < b.span.Start
		}
		if a.name != b.name {
			return a.name < b.name
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.epoch < b.epoch
	})
}

// tracerExport is one collector's contribution to a merge: its retained
// entries keyed for canonical ordering, its track-name table, and its
// exact recorded count.
type tracerExport struct {
	ents     []frEntry
	tracks   []string
	recorded uint64
}

// exportEntries snapshots the tracer's retained spans with their
// placement-invariant merge keys. A plain tracer derives each span's
// per-track begin sequence lazily here (record order within one track is
// the begin order), so the recording hot path pays nothing for it.
func (t *Tracer) exportEntries() tracerExport {
	t.mu.Lock()
	defer t.mu.Unlock()
	tracks := make([]string, len(t.tracks))
	copy(tracks, t.tracks)
	if t.fr != nil {
		return tracerExport{ents: t.fr.snapshot(t.tracks), tracks: tracks, recorded: t.fr.recorded}
	}
	ents := make([]frEntry, len(t.spans))
	seqs := make([]uint64, len(t.tracks))
	for i, sp := range t.spans {
		seq := seqs[sp.Track]
		seqs[sp.Track] = seq + 1
		ents[i] = frEntry{span: sp, name: t.tracks[sp.Track], seq: seq}
	}
	return tracerExport{ents: ents, tracks: tracks, recorded: uint64(len(t.spans))}
}

// Merge folds the parts' spans into t in canonical (start, track name,
// begin sequence) order. Track names are unioned into t's table in
// sorted order; span ids are reissued densely under t's shard qualifier
// with parent links remapped across parts (a parent that was never
// retained becomes 0). Parts should be Flushed first — an open span
// merges with its NaN end time intact.
//
// A flight-recorder destination instead feeds every part entry through
// its own bounded selection under a fresh merge epoch, adding the parts'
// exact recorded counts to its own; because the selection is a pure
// function of (bounds, seed, keys), merging per-shard recorders
// reproduces the single-shard selection byte for byte.
//
// The parts are left untouched; merging a nil part or t itself is a
// no-op.
func (t *Tracer) Merge(parts ...*Tracer) {
	if t == nil {
		return
	}
	exports := make([]tracerExport, 0, len(parts))
	total := 0
	for _, p := range parts {
		if p == nil || p == t {
			continue
		}
		ex := p.exportEntries()
		exports = append(exports, ex)
		total += len(ex.ents)
	}
	nameSet := make(map[string]bool)
	for _, ex := range exports {
		for _, n := range ex.tracks {
			nameSet[n] = true
		}
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	all := make([]frEntry, 0, total)
	for _, ex := range exports {
		all = append(all, ex.ents...)
	}
	sortEntries(all)

	t.mu.Lock()
	defer t.mu.Unlock()
	// Register the union in sorted order even when no spans survived:
	// empty tracks still appear in the exported timeline, and their order
	// must not depend on shard placement.
	for _, n := range names {
		t.trackLocked(n)
	}
	if t.fr != nil {
		t.fr.epoch++
		for _, ex := range exports {
			t.fr.recorded += ex.recorded
		}
		for _, e := range all {
			sp := e.span
			sp.ID, sp.Parent = 0, 0
			sp.Track = t.trackIx[e.name]
			sp.Start += t.offset
			sp.End += t.offset
			t.fr.retire(frEntry{span: sp, name: e.name, seq: e.seq, epoch: t.fr.epoch})
		}
		return
	}
	base := len(t.spans)
	remap := make(map[SpanID]SpanID, len(all))
	for i, e := range all {
		if e.span.ID != 0 {
			remap[e.span.ID] = t.qual | SpanID(base+i+1)
		}
	}
	for i, e := range all {
		sp := e.span
		sp.ID = t.qual | SpanID(base+i+1)
		sp.Parent = remap[e.span.Parent] // zero-value miss cuts the link
		sp.Track = t.trackIx[e.name]
		sp.Start += t.offset
		sp.End += t.offset
		t.spans = append(t.spans, sp)
	}
}
