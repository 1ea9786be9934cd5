package wind

import (
	"fmt"
	"strings"
	"testing"

	"failstutter/internal/sim"
	"failstutter/internal/spec"
)

// quietVolume is mustVolume with monitoring pushed past any test horizon,
// so a run exercises only the write path.
func quietVolume(s *sim.Simulator, policy Policy) *Volume {
	v, err := NewVolume(s, VolumeParams{
		Nodes:         6,
		Replication:   2,
		BlockBytes:    blockBytes,
		Policy:        policy,
		Spec:          spec.Spec{ExpectedRate: 1e6, Tolerance: 0.4, PromotionTimeout: 10},
		ProbeInterval: 1e9,
		WriteTimeout:  0.5,
	}, func(i int) NodeParams {
		np := flatNode(1e6)
		np.Disk.Name = fmt.Sprintf("wind-disk-%d", i)
		return np
	})
	if err != nil {
		panic(err)
	}
	return v
}

// writeAllocs returns the steady-state allocations of one logical write,
// run to completion.
func writeAllocs(policy Policy) float64 {
	s := sim.New()
	v := quietVolume(s, policy)
	done := func() {}
	return testing.AllocsPerRun(1000, func() {
		v.Write(done)
		s.RunUntil(s.Now() + 1)
	})
}

// A static write reuses every record on its path: block and replica
// records, and the link and disk records beneath them.
func TestStaticWriteAllocs(t *testing.T) {
	if allocs := writeAllocs(Static); allocs != 0 {
		t.Fatalf("static Volume.Write allocates %v times per write, want 0", allocs)
	}
}

// An adaptive write allocates only its placement record, the bookkeeping
// the adaptive policy pays for (Volume.Bookkeeping counts them). The
// pending write timeouts are stopped, not leaked.
func TestAdaptiveWriteAllocs(t *testing.T) {
	if allocs := writeAllocs(Adaptive); allocs != 1 {
		t.Fatalf("adaptive Volume.Write allocates %v times per write, want 1 (the placement record)", allocs)
	}
}

// mustPanicWith runs fn and fails unless it panics with a message
// containing want.
func mustPanicWith(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("recovered %v, want a panic containing %q", r, want)
		}
	}()
	fn()
}

// Every record a finished write leaves on the free lists is poisoned: a
// stage that reaches one again panics naming it.
func TestReleasedRecordsArePoisoned(t *testing.T) {
	s := sim.New()
	v := quietVolume(s, Adaptive)
	v.Write(nil)
	s.RunUntil(1)
	b, rw := v.freeBlocks, v.freeReplicas
	if b == nil || rw == nil {
		t.Fatal("a finished write left no records to recycle")
	}
	mustPanicWith(t, "blockWrite used after its release", func() { b.replicaDone(0, 0) })
	mustPanicWith(t, "replicaWrite used after its release", func() { rw.sentFn(0) })
	mustPanicWith(t, "replicaWrite used after its release", func() { rw.landedFn(0) })
	mustPanicWith(t, "replicaWrite used after its release", func() { rw.timeoutFn() })
}

// A replica write that times out and then lands late releases its record
// only at that late landing, and the diverted copy still completes the
// block: both paths that can reach the record are counted.
func TestTimedOutReplicaRecycledAfterLateLanding(t *testing.T) {
	s := sim.New()
	v := quietVolume(s, Adaptive)
	// Node 0 stalls for 2 s: its replica of block 0 times out at 0.5 s
	// and is diverted, and the stalled copy lands after the stall.
	v.Node(0).Disk().SetMultiplier(0)
	s.At(2, func() { v.Node(0).Disk().SetMultiplier(1) })
	written := false
	v.Write(func() { written = true })
	s.RunUntil(1)
	if !written || v.Diverted() != 1 {
		t.Fatalf("written=%v diverted=%d by t=1, want the diverted copy to complete the block", written, v.Diverted())
	}
	held := freeReplicas(v)
	s.RunUntil(3)
	if got := freeReplicas(v); got != held+1 {
		t.Fatalf("late landing left %d replica records free, want %d", got, held+1)
	}
}

func freeReplicas(v *Volume) int {
	n := 0
	for rw := v.freeReplicas; rw != nil; rw = rw.next {
		n++
	}
	return n
}
