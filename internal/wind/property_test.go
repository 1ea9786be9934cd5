package wind

import (
	"fmt"
	"testing"
	"testing/quick"

	"failstutter/internal/faults"
	"failstutter/internal/sim"
	"failstutter/internal/spec"
)

// Property: under arbitrary non-fatal fault schedules, every acknowledged
// write has all its replicas on distinct nodes, and the adaptive volume's
// bookkeeping covers exactly the blocks issued.
func TestVolumeReplicaDistinctnessUnderFaults(t *testing.T) {
	f := func(seed uint64, rawFaults []uint8) bool {
		s := sim.New()
		v := mustVolume(s, Adaptive)
		rng := sim.NewRNG(seed)
		for i, b := range rawFaults {
			if i >= 4 {
				break
			}
			node := v.Node(int(b) % 6).Disk()
			start := rng.Uniform(0, 4)
			faults.Interval{
				Start: start, End: start + rng.Uniform(0.5, 3),
				Factor: rng.Uniform(0.02, 0.6),
			}.Install(s, node.Composite())
		}
		issued := 0
		for i := 0; i < 200; i++ {
			v.Write(nil)
			issued++
		}
		s.RunUntil(30)
		if v.Bookkeeping() != issued {
			return false
		}
		for _, nodes := range v.placements {
			seen := map[int]bool{}
			for _, n := range nodes {
				if n < 0 || n >= 6 || seen[n] {
					return false
				}
				seen[n] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: acknowledged writes never exceed issued writes, and with no
// faults the two converge once the simulator drains the load.
func TestVolumeAckConservation(t *testing.T) {
	f := func(n16 uint16) bool {
		n := int(n16%300) + 1
		s := sim.New()
		v := mustVolume(s, Adaptive)
		acked := 0
		for i := 0; i < n; i++ {
			v.Write(func() { acked++ })
		}
		s.RunUntil(60)
		return acked == n && v.Written() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// The service-speed sampler must keep an idle volume nominal forever: no
// demand is not evidence of a fault.
func TestVolumeIdleStaysNominal(t *testing.T) {
	s := sim.New()
	v := mustVolume(s, Adaptive)
	s.RunUntil(100)
	for i := 0; i < 6; i++ {
		if v.Controller().State(fmt.Sprintf("node-%d", i)) != spec.Nominal {
			t.Fatalf("idle node %d state = %v", i, v.Controller().State(fmt.Sprintf("node-%d", i)))
		}
	}
	if v.Controller().Registry().Notifications() != 0 {
		t.Fatalf("idle volume published %d notifications", v.Controller().Registry().Notifications())
	}
}
