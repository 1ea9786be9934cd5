package experiments

import (
	"testing"

	"failstutter/internal/sim"
)

// A saturated station resubmits one request from its own completion, so
// each completion of the closed loop allocates nothing.
func TestSaturatedCompletionAllocs(t *testing.T) {
	s := sim.New()
	st, counter := saturated(s, "d0", 100)
	allocs := testing.AllocsPerRun(1000, func() {
		s.RunUntil(s.Now() + 0.01) // one 0.01 s chunk
	})
	if allocs != 0 {
		t.Fatalf("a saturated completion allocates %v times, want 0", allocs)
	}
	if c := st.Completed(); c < 1000 || counter() != float64(c) {
		t.Fatalf("%d completions, counter %v: the loop stopped refilling", c, counter())
	}
}
