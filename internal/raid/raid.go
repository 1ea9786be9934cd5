// Package raid implements the RAID-10 storage substrate of the paper's
// Section 3.2 worked example: data blocks are striped (RAID-0) across a
// set of mirrored pairs (RAID-1). Three striping policies of increasing
// fail-stutter awareness — static equal, install-time gauged, and
// continuously adaptive — reproduce the paper's three design scenarios,
// and hot-spare reconstruction covers the fail-stop side of the model.
package raid

import (
	"fmt"

	"failstutter/internal/device"
	"failstutter/internal/sim"
	"failstutter/internal/trace"
)

// MirrorPair is a RAID-1 pair of disks. Writes go to every live member
// and complete when the slowest member finishes, so the pair's write rate
// is the minimum of its disks — the reason the paper suggests pairing
// disks that perform similarly.
type MirrorPair struct {
	ID int
	A  *device.Disk
	B  *device.Disk

	s         *sim.Simulator
	nextBlock int64
	done      uint64
	lost      uint64
	// head and tail bound the outstanding writes in issue order, so
	// diskFailed resolves them (and fires their callbacks) deterministically.
	head, tail *writeOp
	// free lists resolved write records for reuse, chained through their
	// next fields, which a resolved op no longer needs for the
	// outstanding list.
	free *writeOp

	tracer *trace.Tracer
	track  trace.TrackID
}

// Member slots of a pair, as bits of a writeOp's pending mask.
const (
	slotA uint8 = 1 << iota
	slotB
)

// writeOp tracks one logical mirrored write until it is durable on every
// live member, or lost because every member it reached has died. Ops come
// from the pair's free list and go back to it as they resolve, before the
// caller's callback runs. By then no copy can still land on the op: each
// slot has either landed or been dropped by diskFailed, whose disk
// abandoned the copy.
type writeOp struct {
	p          *MirrorPair
	pending    uint8 // slots still owing a copy
	completed  int
	onDone     func()
	onFail     func()
	span       trace.SpanID
	prev, next *writeOp // the pair's outstanding list
	// landedA and landedB are the per-slot completions bound once.
	landedA, landedB func(float64)
}

// NewMirrorPair builds a pair over two disks and wires failure
// accounting: when a disk dies, writes outstanding on it are resolved —
// completed if a surviving copy lands, lost otherwise — so stripers can
// reissue.
func NewMirrorPair(s *sim.Simulator, id int, a, b *device.Disk) *MirrorPair {
	p := &MirrorPair{ID: id, A: a, B: b, s: s}
	a.OnFail(func() { p.diskFailed(slotA) })
	b.OnFail(func() { p.diskFailed(slotB) })
	return p
}

// SetTracer attaches a span tracer: the pair records mirrored-write and
// mirrored-read spans on a "pair-<ID>" track, and both member disks are
// wired too.
func (p *MirrorPair) SetTracer(t *trace.Tracer) {
	p.tracer = t
	if t != nil {
		p.track = t.Track(fmt.Sprintf("pair-%d", p.ID))
	}
	p.A.SetTracer(t)
	p.B.SetTracer(t)
}

// diskFailed drops the dead slot from every outstanding write, resolving
// them in issue order: resolve fires callbacks that reissue work, so the
// order must be deterministic. The walk reads each op's successor before
// resolving it, because a resolved op is recycled and may be relinked at
// the tail by the callback; callbacks otherwise only append to the list.
func (p *MirrorPair) diskFailed(slot uint8) {
	for op := p.head; op != nil; {
		next := op.next
		if op.pending&slot != 0 {
			op.pending &^= slot
			p.resolve(op)
		}
		op = next
	}
}

// resolve finishes an op whose pending set has drained: it releases the
// op, then runs the caller's callback.
func (p *MirrorPair) resolve(op *writeOp) {
	if op.pending != 0 {
		return
	}
	p.unlink(op)
	if p.tracer != nil {
		p.tracer.End(op.span, p.s.Now())
	}
	completed, onDone, onFail := op.completed > 0, op.onDone, op.onFail
	// A released op forgets its pair, so a copy landing on it after its
	// release panics instead of resolving a later write.
	op.onDone, op.onFail, op.p = nil, nil, nil
	op.next, p.free = p.free, op
	if completed {
		p.done++
		if onDone != nil {
			onDone()
		}
		return
	}
	p.lost++
	if onFail != nil {
		onFail()
	}
}

// link appends op to the tail of the outstanding list.
func (p *MirrorPair) link(op *writeOp) {
	op.prev = p.tail
	if p.tail != nil {
		p.tail.next = op
	} else {
		p.head = op
	}
	p.tail = op
}

// unlink removes op from the outstanding list.
func (p *MirrorPair) unlink(op *writeOp) {
	if op.prev != nil {
		op.prev.next = op.next
	} else {
		p.head = op.next
	}
	if op.next != nil {
		op.next.prev = op.prev
	} else {
		p.tail = op.prev
	}
	op.prev, op.next = nil, nil
}

// Failed reports whether both members are dead (the pair, and with it the
// array, has lost data).
func (p *MirrorPair) Failed() bool { return p.A.Failed() && p.B.Failed() }

// Degraded reports whether exactly one member is dead.
func (p *MirrorPair) Degraded() bool { return p.A.Failed() != p.B.Failed() }

// BlocksWritten returns completed logical block writes.
func (p *MirrorPair) BlocksWritten() uint64 { return p.done }

// BlocksLost returns logical writes abandoned because every live member
// they were issued to failed before completion.
func (p *MirrorPair) BlocksLost() uint64 { return p.lost }

// live returns the pair's live members.
func (p *MirrorPair) live() []*device.Disk {
	var ds []*device.Disk
	if !p.A.Failed() {
		ds = append(ds, p.A)
	}
	if !p.B.Failed() {
		ds = append(ds, p.B)
	}
	return ds
}

// WriteBlock appends one logical block to the pair: a mirrored write to
// every live member. onDone fires when every live copy lands; onFail
// fires instead if every member the write reached dies first. Writing to
// a fully failed pair invokes onFail immediately (after the current
// event, to keep callback ordering sane).
func (p *MirrorPair) WriteBlock(onDone func(), onFail func()) {
	p.WriteBlockSpan(0, onDone, onFail)
}

// WriteBlockSpan is WriteBlock with a caller-level parent span (a striper
// job). The pair records a "mirrored-write" span covering issue to
// durability, and each member disk's write span parents to it.
func (p *MirrorPair) WriteBlockSpan(parent trace.SpanID, onDone func(), onFail func()) {
	var live uint8
	if !p.A.Failed() {
		live |= slotA
	}
	if !p.B.Failed() {
		live |= slotB
	}
	if live == 0 {
		p.lost++
		if p.tracer != nil {
			p.tracer.Instant(p.track, "write-to-dead-pair", "raid", p.s.Now())
		}
		if onFail != nil {
			p.s.After(0, onFail)
		}
		return
	}
	block := p.nextBlock
	p.nextBlock++
	op := p.takeOp()
	op.pending, op.completed = live, 0
	op.onDone, op.onFail = onDone, onFail
	op.span = 0
	if p.tracer != nil {
		op.span = p.tracer.BeginArg(p.track, "mirrored-write", "raid", parent, p.s.Now(), block)
	}
	p.link(op)
	if live&slotA != 0 {
		p.A.AccessSpan(op.span, block, 1, true, op.landedA)
	}
	if live&slotB != 0 {
		p.B.AccessSpan(op.span, block, 1, true, op.landedB)
	}
}

// takeOp pops a free write record or makes one.
func (p *MirrorPair) takeOp() *writeOp {
	if op := p.free; op != nil {
		p.free, op.next = op.next, nil
		op.p = p
		return op
	}
	op := &writeOp{p: p}
	op.landedA = func(float64) { op.landed(slotA) }
	op.landedB = func(float64) { op.landed(slotB) }
	return op
}

// landed counts op's copy on slot as durable.
func (op *writeOp) landed(slot uint8) {
	if op.p == nil {
		panic("raid: writeOp landed after its release")
	}
	op.pending &^= slot
	op.completed++
	op.p.resolve(op)
}

// ReadBlock reads a previously appended logical block from the pair.
// The request goes to the live member with the shorter queue; if
// hedgeAfter is positive and the read has not completed within that many
// seconds, a duplicate is issued to the other live member and the first
// completion wins — the per-request promotion threshold of the
// fail-stutter model, applied to reads. Without a healthy mirror to hedge
// onto (a correlated fault, or a degraded pair) hedging cannot help,
// which is exactly the design-diversity argument of Section 3.3. onFail
// fires if no live member remains at issue time. Reading past the append
// point panics: it is always a caller bug.
func (p *MirrorPair) ReadBlock(block int64, hedgeAfter sim.Duration, onDone func(latency float64), onFail func()) {
	if block < 0 || block >= p.nextBlock {
		panic(fmt.Sprintf("raid: pair %d read of unwritten block %d", p.ID, block))
	}
	targets := p.live()
	if len(targets) == 0 {
		if onFail != nil {
			p.s.After(0, onFail)
		}
		return
	}
	best := targets[0]
	for _, d := range targets[1:] {
		if d.QueueLen() < best.QueueLen() {
			best = d
		}
	}
	start := p.s.Now()
	var span trace.SpanID
	if p.tracer != nil {
		span = p.tracer.BeginArg(p.track, "mirrored-read", "raid", 0, start, block)
	}
	finished := false
	finish := func(float64) {
		if finished {
			return
		}
		finished = true
		if p.tracer != nil {
			p.tracer.End(span, p.s.Now())
		}
		if onDone != nil {
			onDone(p.s.Now() - start)
		}
	}
	best.AccessSpan(span, block, 1, false, finish)
	if hedgeAfter > 0 {
		p.s.After(hedgeAfter, func() {
			if finished {
				return
			}
			for _, d := range p.live() {
				if d != best {
					if p.tracer != nil {
						p.tracer.Instant(p.track, "hedge", "raid", p.s.Now())
					}
					d.AccessSpan(span, block, 1, false, finish)
					return
				}
			}
		})
	}
}

// Array is a RAID-10 array: logical blocks striped over mirror pairs.
type Array struct {
	s          *sim.Simulator
	pairs      []*MirrorPair
	blockBytes float64

	// blockMap records, for each logical block written through a
	// bookkeeping policy, which pair holds it. Static policies do not
	// need it; the adaptive policy's map growth is the "increased
	// bookkeeping" cost the paper calls out, measured by ablation A2.
	blockMap []int

	tracer *trace.Tracer
	track  trace.TrackID
}

// NewArray builds an array over the given pairs.
func NewArray(s *sim.Simulator, pairs []*MirrorPair, blockBytes float64) *Array {
	if len(pairs) == 0 || blockBytes <= 0 {
		panic("raid: array needs pairs and a positive block size")
	}
	return &Array{s: s, pairs: pairs, blockBytes: blockBytes}
}

// Pairs returns the array's mirror pairs.
func (a *Array) Pairs() []*MirrorPair { return a.pairs }

// SetTracer attaches a span tracer to the array, every pair, and every
// member disk. Striper jobs record on the "array" track; each mirrored
// write parents its per-disk spans, giving the full causal chain
// job → mirrored-write → disk write → station queue/service.
func (a *Array) SetTracer(t *trace.Tracer) {
	a.tracer = t
	if t != nil {
		a.track = t.Track("array")
	}
	for _, p := range a.pairs {
		p.SetTracer(t)
	}
}

// BlockBytes returns the logical block size.
func (a *Array) BlockBytes() float64 { return a.blockBytes }

// Halted reports whether any pair has fully failed (RAID-10 data loss:
// "if two disks in a mirror-pair fail, operation is halted").
func (a *Array) Halted() bool {
	for _, p := range a.pairs {
		if p.Failed() {
			return true
		}
	}
	return false
}

// BookkeepingEntries returns the number of block-placement records the
// array currently holds.
func (a *Array) BookkeepingEntries() int { return len(a.blockMap) }

// recordPlacement appends a block->pair record.
func (a *Array) recordPlacement(pair int) { a.blockMap = append(a.blockMap, pair) }

// PairRates measures each pair's recent write rate in blocks/s from
// completion counters sampled over the given window by the caller; here
// it simply reports blocks written so callers can diff. (See
// Striper implementations for use.)
func (a *Array) pairCompletions() []uint64 {
	out := make([]uint64, len(a.pairs))
	for i, p := range a.pairs {
		out[i] = p.BlocksWritten()
	}
	return out
}

// GaugePairRates benchmarks each pair once with probeBlocks mirrored
// writes and returns per-pair rates in blocks/second. This is the paper's
// install-time gauging: it observes whatever the disks actually deliver,
// including any masked faults present at install time. The simulation
// runs during gauging; call before starting the measured workload.
func (a *Array) GaugePairRates(probeBlocks int64) []float64 {
	if probeBlocks <= 0 {
		panic("raid: probeBlocks must be positive")
	}
	rates := make([]float64, len(a.pairs))
	for i, p := range a.pairs {
		start := a.s.Now()
		remaining := probeBlocks
		finish := start
		done := false
		var issue func()
		issue = func() {
			if remaining == 0 {
				// The probe's own completion stamps the finish time and
				// halts the run: open-ended fault injectors may otherwise
				// keep the event queue alive indefinitely.
				finish = a.s.Now()
				done = true
				a.s.Stop()
				return
			}
			remaining--
			p.WriteBlock(issue, nil)
		}
		issue()
		a.s.Run()
		if done && finish > start {
			rates[i] = float64(probeBlocks) / (finish - start)
		}
	}
	return rates
}

// Result summarizes one striped write job.
type Result struct {
	Policy      string
	Blocks      int64
	Makespan    float64
	Throughput  float64 // bytes per second
	PerPair     []int64
	Bookkeeping int
	Reissued    int64
}

func (r Result) String() string {
	return fmt.Sprintf("%s: %d blocks in %.3fs = %.3g B/s (bookkeeping %d, reissued %d)",
		r.Policy, r.Blocks, r.Makespan, r.Throughput, r.Bookkeeping, r.Reissued)
}

// Striper is a placement policy for a striped write job.
type Striper interface {
	Name() string
	// Run writes `blocks` logical blocks through the array, invoking
	// onDone with the job summary when the last block lands. The caller
	// drives the simulator.
	Run(a *Array, blocks int64, onDone func(Result))
}

// WriteAndMeasure runs a striper to completion and returns its result.
// It is the convenience entry point used by experiments; it runs the
// simulator until the job finishes or no further progress is possible.
func WriteAndMeasure(s *sim.Simulator, a *Array, st Striper, blocks int64) (Result, error) {
	var res Result
	finished := false
	st.Run(a, blocks, func(r Result) {
		res = r
		finished = true
		// Halt the run loop: open-ended fault injectors may otherwise
		// keep scheduling events long after the job is done.
		s.Stop()
	})
	s.Run()
	if !finished {
		return Result{}, fmt.Errorf("raid: %s job did not complete (array halted: %v)", st.Name(), a.Halted())
	}
	return res, nil
}
