package sim_test

import (
	"fmt"

	"failstutter/internal/sim"
)

// A station serves work at a time-varying rate; a performance fault is
// just a multiplier. The caller owns its Request and may resubmit it from
// its own OnDone, so a closed loop allocates one record for its whole run.
func ExampleStation() {
	s := sim.New()
	st := sim.NewStation(s, "disk", 10) // 10 units/s
	served := 0
	req := sim.Request{Size: 100}
	req.OnDone = func(r *sim.Request) {
		served++
		fmt.Printf("request %d finished at t=%v\n", served, r.Finished)
		if served < 2 {
			st.Submit(r)
		}
	}
	st.Submit(&req)
	// Halve the rate five seconds in: the remaining 50 units of the first
	// request take 10 s, and the resubmitted second request takes 20 s.
	s.At(5, func() { st.SetMultiplier(0.5) })
	s.Run()
	// Output:
	// request 1 finished at t=15
	// request 2 finished at t=35
}

// Deterministic random streams: forking by name isolates components.
func ExampleRNG_Fork() {
	root := sim.NewRNG(42)
	a := root.Fork("disk-0")
	b := sim.NewRNG(42).Fork("disk-0")
	fmt.Println(a.Uint64() == b.Uint64())
	// Output:
	// true
}
