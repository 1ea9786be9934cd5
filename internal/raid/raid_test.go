package raid

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"failstutter/internal/device"
	"failstutter/internal/faults"
	"failstutter/internal/sim"
)

const blockBytes = 4096

// testDisk returns a flat single-zone disk with the given bandwidth in
// bytes/s.
func testDisk(s *sim.Simulator, name string, bw float64) *device.Disk {
	return device.MustDisk(s, device.DiskParams{
		Name:           name,
		CapacityBlocks: 1 << 22,
		BlockBytes:     blockBytes,
		Zones:          []device.Zone{{CapacityFrac: 1, Bandwidth: bw}},
		SeekTime:       0.001,
		AgingFactor:    1,
	})
}

// testArray builds an array with one pair per rate (both pair members at
// that rate), rates in bytes/s.
func testArray(s *sim.Simulator, rates []float64) *Array {
	pairs := make([]*MirrorPair, len(rates))
	for i, r := range rates {
		a := testDisk(s, pairName(i, "a"), r)
		b := testDisk(s, pairName(i, "b"), r)
		pairs[i] = NewMirrorPair(s, i, a, b)
	}
	return NewArray(s, pairs, blockBytes)
}

func pairName(i int, side string) string {
	return "pair" + string(rune('0'+i)) + "-" + side
}

func TestMirrorPairRateIsMinOfMembers(t *testing.T) {
	s := sim.New()
	fast := testDisk(s, "fast", 100*blockBytes) // 100 blocks/s
	slow := testDisk(s, "slow", 50*blockBytes)  // 50 blocks/s
	p := NewMirrorPair(s, 0, fast, slow)
	done := 0
	var issue func()
	issue = func() {
		if done >= 100 {
			return
		}
		p.WriteBlock(func() { done++; issue() }, nil)
	}
	issue()
	s.Run()
	// 100 blocks at the slow member's 50 blocks/s ~ 2 s.
	if s.Now() < 1.9 || s.Now() > 2.2 {
		t.Fatalf("pair of (100,50) blocks/s wrote 100 blocks in %v s, want ~2", s.Now())
	}
	if p.BlocksWritten() != 100 {
		t.Fatalf("blocks written = %d", p.BlocksWritten())
	}
}

func TestMirrorPairSurvivesSingleFailure(t *testing.T) {
	s := sim.New()
	a := testDisk(s, "a", 10*blockBytes)
	b := testDisk(s, "b", 10*blockBytes)
	p := NewMirrorPair(s, 0, a, b)
	completed, failed := 0, 0
	for i := 0; i < 50; i++ {
		p.WriteBlock(func() { completed++ }, func() { failed++ })
	}
	s.At(1, a.Fail) // ~10 blocks in; 40 queued writes on a abandoned
	s.Run()
	if failed != 0 {
		t.Fatalf("failures = %d, want 0 (mirror survives)", failed)
	}
	if completed != 50 {
		t.Fatalf("completed = %d, want all 50 via survivor", completed)
	}
	if !p.Degraded() || p.Failed() {
		t.Fatalf("pair state degraded=%v failed=%v", p.Degraded(), p.Failed())
	}
}

func TestMirrorPairDoubleFailureLosesWrites(t *testing.T) {
	s := sim.New()
	a := testDisk(s, "a", 10*blockBytes)
	b := testDisk(s, "b", 10*blockBytes)
	p := NewMirrorPair(s, 0, a, b)
	completed, failed := 0, 0
	for i := 0; i < 50; i++ {
		p.WriteBlock(func() { completed++ }, func() { failed++ })
	}
	s.At(1, a.Fail)
	s.At(1.5, b.Fail)
	s.Run()
	if !p.Failed() {
		t.Fatal("pair not failed after double failure")
	}
	if completed+failed != 50 {
		t.Fatalf("completed %d + failed %d != 50", completed, failed)
	}
	if failed == 0 {
		t.Fatal("no writes reported lost")
	}
	if p.BlocksLost() != uint64(failed) {
		t.Fatalf("BlocksLost = %d, callbacks = %d", p.BlocksLost(), failed)
	}
}

func TestWriteBlockOnDeadPairFailsImmediately(t *testing.T) {
	s := sim.New()
	a := testDisk(s, "a", 10*blockBytes)
	b := testDisk(s, "b", 10*blockBytes)
	p := NewMirrorPair(s, 0, a, b)
	a.Fail()
	b.Fail()
	failed := false
	p.WriteBlock(func() { t.Fatal("write completed on dead pair") }, func() { failed = true })
	s.Run()
	if !failed {
		t.Fatal("onFail not invoked")
	}
}

// Scenario 1 (E01): with N-1 pairs at B and one at b, static-equal
// striping delivers N*b.
func TestStaticEqualTracksSlowPair(t *testing.T) {
	s := sim.New()
	B, b := 1e6, 0.25e6
	a := testArray(s, []float64{B, B, B, b})
	res, err := WriteAndMeasure(s, a, StaticEqual{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * b // N*b
	if math.Abs(res.Throughput-want)/want > 0.05 {
		t.Fatalf("static throughput = %v, want ~%v (N*b)", res.Throughput, want)
	}
	// Equal shares regardless of speed.
	for i, n := range res.PerPair {
		if n != 500 {
			t.Fatalf("pair %d wrote %d blocks, want 500", i, n)
		}
	}
	if res.Bookkeeping != 0 {
		t.Fatalf("static bookkeeping = %d, want 0", res.Bookkeeping)
	}
}

// Scenario 2 (E02): install-time gauging delivers (N-1)*B + b under
// static performance faults.
func TestGaugedProportionalUsesFullBandwidth(t *testing.T) {
	s := sim.New()
	B, b := 1e6, 0.25e6
	a := testArray(s, []float64{B, B, B, b})
	res, err := WriteAndMeasure(s, a, GaugedProportional{ProbeBlocks: 32}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	want := 3*B + b
	if math.Abs(res.Throughput-want)/want > 0.08 {
		t.Fatalf("gauged throughput = %v, want ~%v ((N-1)B+b)", res.Throughput, want)
	}
	// The slow pair gets ~1/13 of the blocks.
	if res.PerPair[3] > res.PerPair[0]/2 {
		t.Fatalf("slow pair share %d not proportional (fast share %d)", res.PerPair[3], res.PerPair[0])
	}
}

// Scenario 2's failure mode: performance drift after gauging reverts the
// design to tracking the slow disk.
func TestGaugedBrokenByPostGaugeDrift(t *testing.T) {
	B := 1e6
	run := func(st Striper) Result {
		s := sim.New()
		a := testArray(s, []float64{B, B, B, B})
		// Pair 0 degrades to 20% two seconds in — after gauging finishes.
		faults.StepAt{At: 2, Factor: 0.2}.Install(s, a.Pairs()[0].A.Composite())
		res, err := WriteAndMeasure(s, a, st, 4000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gauged := run(GaugedProportional{ProbeBlocks: 32})
	adaptive := run(AdaptivePull{Depth: 2})
	if adaptive.Throughput < 1.3*gauged.Throughput {
		t.Fatalf("adaptive %v not clearly better than drift-broken gauged %v",
			adaptive.Throughput, gauged.Throughput)
	}
}

// Scenario 3 (E03): adaptive placement matches the gauged optimum under
// static faults without any install-time step.
func TestAdaptivePullFullBandwidthStatic(t *testing.T) {
	s := sim.New()
	B, b := 1e6, 0.25e6
	a := testArray(s, []float64{B, B, B, b})
	res, err := WriteAndMeasure(s, a, AdaptivePull{Depth: 2}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	want := 3*B + b
	if res.Throughput < 0.9*want {
		t.Fatalf("adaptive throughput = %v, want >= 0.9*%v", res.Throughput, want)
	}
	if res.Bookkeeping != int(res.Blocks+res.Reissued) {
		t.Fatalf("bookkeeping = %d, want one entry per placement (%d)",
			res.Bookkeeping, res.Blocks+res.Reissued)
	}
}

func TestAdaptivePullReissuesAfterPairDeath(t *testing.T) {
	s := sim.New()
	B := 1e6
	a := testArray(s, []float64{B, B, B, B})
	// Pair 3 dies entirely mid-job.
	s.At(1, a.Pairs()[3].A.Fail)
	s.At(1.2, a.Pairs()[3].B.Fail)
	res, err := WriteAndMeasure(s, a, AdaptivePull{Depth: 2}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reissued == 0 {
		t.Fatal("no blocks reissued after pair death")
	}
	if !a.Halted() {
		t.Fatal("array not marked halted despite dead pair")
	}
	total := int64(0)
	for _, n := range res.PerPair {
		total += n
	}
	if total != res.Blocks {
		t.Fatalf("per-pair sum %d != blocks %d", total, res.Blocks)
	}
}

func TestAdaptiveWaveStatic(t *testing.T) {
	s := sim.New()
	B, b := 1e6, 0.25e6
	a := testArray(s, []float64{B, B, B, b})
	res, err := WriteAndMeasure(s, a, AdaptiveWave{Interval: 0.2, WaveBlocks: 400}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	want := 3*B + b
	if res.Throughput < 0.8*want {
		t.Fatalf("wave throughput = %v, want >= 0.8*%v", res.Throughput, want)
	}
}

func TestAdaptiveWaveTracksDynamicFault(t *testing.T) {
	B := 1e6
	run := func(st Striper) Result {
		s := sim.New()
		a := testArray(s, []float64{B, B, B, B})
		// Pair 0 oscillates: 20% for one second, recovered the next.
		faults.PeriodicStall{Period: 2, Duration: 1, Factor: 0.2, Until: 60}.
			Install(s, a.Pairs()[0].A.Composite())
		res, err := WriteAndMeasure(s, a, st, 6000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(StaticEqual{})
	wave := run(AdaptiveWave{Interval: 0.25, WaveBlocks: 500})
	if wave.Throughput < 1.2*static.Throughput {
		t.Fatalf("adaptive wave %v not clearly better than static %v under oscillation",
			wave.Throughput, static.Throughput)
	}
}

func TestGaugePairRates(t *testing.T) {
	s := sim.New()
	B, b := 1e6, 0.25e6
	a := testArray(s, []float64{B, b})
	rates := a.GaugePairRates(64)
	// Rates in blocks/s: ~B/blockBytes and ~b/blockBytes.
	r0, r1 := rates[0]*blockBytes, rates[1]*blockBytes
	if math.Abs(r0-B)/B > 0.1 {
		t.Fatalf("gauged pair0 = %v B/s, want ~%v", r0, B)
	}
	if math.Abs(r1-b)/b > 0.1 {
		t.Fatalf("gauged pair1 = %v B/s, want ~%v", r1, b)
	}
}

func TestReconstructionRestoresRedundancy(t *testing.T) {
	s := sim.New()
	B := 1e6
	a := testArray(s, []float64{B, B})
	spare := testDisk(s, "spare", B)
	pool := NewSparePool(spare)
	var ev ReconEvent
	got := false
	EnableReconstruction(a, pool, 64, func(e ReconEvent) { ev = e; got = true })

	// Write some data first, then kill pair 0's A member.
	res, err := WriteAndMeasure(s, a, StaticEqual{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	a.Pairs()[0].A.Fail()
	s.Run()
	if !got {
		t.Fatal("reconstruction did not complete")
	}
	if ev.PairID != 0 || ev.Blocks < 500 {
		t.Fatalf("recon event = %+v", ev)
	}
	if a.Pairs()[0].Degraded() {
		t.Fatal("pair still degraded after rebuild")
	}
	if pool.Remaining() != 0 {
		t.Fatalf("spares remaining = %d", pool.Remaining())
	}
	// The rebuilt pair accepts writes mirrored to the spare.
	done := false
	a.Pairs()[0].WriteBlock(func() { done = true }, nil)
	s.Run()
	if !done {
		t.Fatal("write after rebuild did not complete")
	}
	if spare.Writes() == 0 {
		t.Fatal("spare received no writes")
	}
}

func TestReconstructionWithoutSparesLeavesDegraded(t *testing.T) {
	s := sim.New()
	a := testArray(s, []float64{1e6})
	EnableReconstruction(a, NewSparePool(), 64, nil)
	if _, err := WriteAndMeasure(s, a, StaticEqual{}, 100); err != nil {
		t.Fatal(err)
	}
	a.Pairs()[0].A.Fail()
	s.Run()
	if !a.Pairs()[0].Degraded() {
		t.Fatal("pair should remain degraded with no spares")
	}
}

func TestStaticJobNeverCompletesIfPairDies(t *testing.T) {
	s := sim.New()
	B := 1e6
	a := testArray(s, []float64{B, B})
	s.At(0.5, a.Pairs()[1].A.Fail)
	s.At(0.6, a.Pairs()[1].B.Fail)
	_, err := WriteAndMeasure(s, a, StaticEqual{}, 2000)
	if err == nil {
		t.Fatal("static job completed despite dead pair")
	}
}

func TestReadBlockFromPair(t *testing.T) {
	s := sim.New()
	a := testDisk(s, "a", 100*blockBytes)
	b := testDisk(s, "b", 100*blockBytes)
	p := NewMirrorPair(s, 0, a, b)
	for i := 0; i < 10; i++ {
		p.WriteBlock(nil, nil)
	}
	s.Run()
	done := false
	p.ReadBlock(5, 0, func(lat float64) { done = lat > 0 }, nil)
	s.Run()
	if !done {
		t.Fatal("read did not complete")
	}
}

func TestReadBlockUnwrittenPanics(t *testing.T) {
	s := sim.New()
	p := NewMirrorPair(s, 0, testDisk(s, "a", blockBytes), testDisk(s, "b", blockBytes))
	defer func() {
		if recover() == nil {
			t.Fatal("read of unwritten block did not panic")
		}
	}()
	p.ReadBlock(0, 0, nil, nil)
}

func TestReadBlockHedgesOntoMirror(t *testing.T) {
	s := sim.New()
	a := testDisk(s, "a", 100*blockBytes)
	b := testDisk(s, "b", 100*blockBytes)
	p := NewMirrorPair(s, 0, a, b)
	for i := 0; i < 4; i++ {
		p.WriteBlock(nil, nil)
	}
	s.Run()
	// Stall member A completely; the hedge must complete the read via B.
	faults.Static{Factor: 0}.Install(s, a.Composite())
	// Give A the shorter queue so the initial pick lands on it.
	var lat float64 = -1
	p.ReadBlock(0, 0.5, func(l float64) { lat = l }, nil)
	s.RunUntil(10)
	if lat < 0 {
		t.Fatal("hedged read never completed")
	}
	if lat < 0.5 || lat > 1 {
		t.Fatalf("hedged read latency %v, want just over the 0.5 s hedge delay", lat)
	}
}

func TestReadBlockNoHedgeStaysStuck(t *testing.T) {
	s := sim.New()
	a := testDisk(s, "a", 100*blockBytes)
	b := testDisk(s, "b", 100*blockBytes)
	p := NewMirrorPair(s, 0, a, b)
	p.WriteBlock(nil, nil)
	s.Run()
	faults.Static{Factor: 0}.Install(s, a.Composite())
	done := false
	p.ReadBlock(0, 0, func(float64) { done = true }, nil)
	s.RunUntil(10)
	if done {
		t.Fatal("read completed despite a stalled target and no hedging")
	}
}

func TestReadBlockFirstCompletionWinsOnce(t *testing.T) {
	s := sim.New()
	a := testDisk(s, "a", 100*blockBytes)
	b := testDisk(s, "b", 100*blockBytes)
	p := NewMirrorPair(s, 0, a, b)
	p.WriteBlock(nil, nil)
	s.Run()
	completions := 0
	// Aggressive hedge: both copies will run; onDone must fire once.
	p.ReadBlock(0, 1e-6, func(float64) { completions++ }, nil)
	s.Run()
	if completions != 1 {
		t.Fatalf("completions = %d, want exactly 1", completions)
	}
}

func TestReadBlockDeadPairFails(t *testing.T) {
	s := sim.New()
	a := testDisk(s, "a", 100*blockBytes)
	b := testDisk(s, "b", 100*blockBytes)
	p := NewMirrorPair(s, 0, a, b)
	p.WriteBlock(nil, nil)
	s.Run()
	a.Fail()
	b.Fail()
	failed := false
	p.ReadBlock(0, 0, func(float64) { t.Fatal("read on dead pair completed") }, func() { failed = true })
	s.Run()
	if !failed {
		t.Fatal("onFail not invoked")
	}
}

func TestArrayValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty array did not panic")
		}
	}()
	NewArray(sim.New(), nil, blockBytes)
}

// fillAndKill issues n writes to p, fails first and then second before
// any copy lands, runs the simulator, and returns the order in which the
// writes' onFail callbacks fired.
func fillAndKill(t *testing.T, s *sim.Simulator, p *MirrorPair, n int, first, second *device.Disk) []int {
	t.Helper()
	var order []int
	for i := 0; i < n; i++ {
		i := i
		p.WriteBlock(func() { t.Errorf("write %d completed on a pair that died first", i) },
			func() { order = append(order, i) })
	}
	now := s.Now()
	s.At(now+0.0005, first.Fail) // the first copy needs a 1 ms seek
	s.At(now+0.0006, second.Fail)
	s.Run()
	return order
}

func assertIssueOrder(t *testing.T, order []int, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("%d writes reported lost, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("onFail order %v, want issue order 0..%d", order, n-1)
		}
	}
}

// Losing both members resolves the outstanding writes in issue order:
// their onFail callbacks reissue work, so the order is part of the
// simulation's determinism.
func TestMirrorPairLosesWritesInIssueOrder(t *testing.T) {
	s := sim.New()
	a := testDisk(s, "a", 10*blockBytes)
	b := testDisk(s, "b", 10*blockBytes)
	p := NewMirrorPair(s, 0, a, b)
	const n = 64
	assertIssueOrder(t, fillAndKill(t, s, p, n, a, b), n)
	if p.head != nil || p.tail != nil {
		t.Fatal("outstanding list not empty after every write resolved")
	}
	if p.BlocksLost() != n {
		t.Fatalf("BlocksLost = %d, want %d", p.BlocksLost(), n)
	}
}

// A spare adopted into a dead member's slot takes over the slot's
// failure accounting: when it dies after the survivor, the writes still
// resolve in issue order.
func TestMirrorPairAdoptedSpareLosesWritesInIssueOrder(t *testing.T) {
	s := sim.New()
	a := testArray(s, []float64{10 * blockBytes})
	spare := testDisk(s, "spare", 10*blockBytes)
	rebuilt := false
	EnableReconstruction(a, NewSparePool(spare), 8, func(ReconEvent) { rebuilt = true })
	if _, err := WriteAndMeasure(s, a, StaticEqual{}, 20); err != nil {
		t.Fatal(err)
	}
	p := a.Pairs()[0]
	b := p.B
	p.A.Fail()
	s.Run()
	if !rebuilt || p.A != spare {
		t.Fatalf("spare not adopted into slot A (rebuilt %v)", rebuilt)
	}
	const n = 64
	assertIssueOrder(t, fillAndKill(t, s, p, n, b, spare), n)
	if !p.Failed() || p.head != nil {
		t.Fatalf("pair failed=%v, outstanding head %v", p.Failed(), p.head)
	}
}

// A mirrored write on a healthy, untraced pair allocates nothing in steady
// state: the write op and each member disk's access record are recycled,
// and the pending set and the issue-order list cost nothing.
func TestWriteBlockSpanAllocs(t *testing.T) {
	s := sim.New()
	p := NewMirrorPair(s, 0, testDisk(s, "a", 1e6), testDisk(s, "b", 1e6))
	allocs := testing.AllocsPerRun(1000, func() {
		p.WriteBlockSpan(0, nil, nil)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("WriteBlockSpan allocates %v times per write, want 0", allocs)
	}
}

// A copy that lands on a write record after the record was released
// panics instead of resolving whichever write reuses the record.
func TestReleasedWriteOpIsPoisoned(t *testing.T) {
	s := sim.New()
	p := NewMirrorPair(s, 0, testDisk(s, "a", 1e6), testDisk(s, "b", 1e6))
	p.WriteBlock(nil, nil)
	s.Run()
	op := p.free
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "writeOp landed after its release") {
			t.Fatalf("stale landing recovered %v, want the writeOp poison panic", r)
		}
	}()
	op.landedA(0)
}
