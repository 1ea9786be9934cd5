package sim

import (
	"fmt"
	"testing"
)

// fuzzProgram runs one random event program: comps components, each an
// event chain drawn from its own RNG stream forked by component name.
// Every firing logs (event id, time) to the component's log, schedules up
// to two follow-ups at quantized delays (zero included, so same-instant
// ties are common), and sometimes stops one of the component's own
// pending timers, logging the victim when Stop reports it pending. on(c)
// is the kernel component c lives on. Every decision depends only on the
// component's own history, so the logs are the same on any partition of
// the components across kernels.
func fuzzProgram(seed uint64, comps int, on func(c int) *Simulator) [][]float64 {
	const budget = 40 // events scheduled per component
	root := NewRNG(seed)
	logs := make([][]float64, comps)
	for c := 0; c < comps; c++ {
		c := c
		s := on(c)
		rng := root.Fork(fmt.Sprintf("c%02d", c))
		var timers []Timer
		var fire func(id int) func()
		schedule := func(at Time) {
			if len(timers) < budget {
				timers = append(timers, s.At(at, fire(len(timers))))
			}
		}
		fire = func(id int) func() {
			return func() {
				logs[c] = append(logs[c], float64(id), s.Now())
				for n := rng.Intn(3); n > 0; n-- {
					schedule(s.Now() + float64(rng.Intn(9))*0.25)
				}
				if rng.Intn(4) == 0 {
					if victim := rng.Intn(len(timers)); timers[victim].Stop() {
						logs[c] = append(logs[c], float64(-1-victim))
					}
				}
			}
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			schedule(float64(rng.Intn(16)) * 0.25)
		}
	}
	return logs
}

// FuzzShardedMatchesSerial checks the sharded kernel against a plain
// Simulator: the same random program, with its components placed by
// identity hash on 1–8 shards and run through windows of a random
// lookahead in (0, 4], must give every component the same firing log and
// fire the same number of events as the program on one kernel. The run
// is split by a RunUntil at a random time, after which every component
// schedules one more event relative to its kernel's clock, so a shard
// clock that RunUntil left short of (or ran past) the limit shows in the
// logs.
func FuzzShardedMatchesSerial(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(1), uint8(7), uint8(0))
	f.Add(uint64(42), uint8(0), uint8(7), uint8(15), uint8(9))
	f.Add(uint64(1337), uint8(15), uint8(3), uint8(4), uint8(31))
	f.Fuzz(func(t *testing.T, seed uint64, la, shards, comps, split uint8) {
		lookahead := float64(la%16+1) * 0.25
		k := int(shards%8) + 1
		n := int(comps%16) + 1
		until := float64(split%32) * 0.25

		run := func(on func(c int) *Simulator, runUntil func(Time), runAll func()) [][]float64 {
			logs := fuzzProgram(seed, n, on)
			runUntil(until)
			for c := range logs {
				c, s := c, on(c)
				s.After(0.5, func() { logs[c] = append(logs[c], -1e9, s.Now()) })
			}
			runAll()
			return logs
		}
		serial := New()
		want := run(func(int) *Simulator { return serial }, serial.RunUntil, serial.Run)
		ss := NewSharded(k, lookahead)
		got := run(func(c int) *Simulator {
			return ss.Shard(ss.ShardFor(fmt.Sprintf("c%02d", c)))
		}, ss.RunUntil, ss.Run)

		if ss.EventsFired() != serial.EventsFired() {
			t.Fatalf("%d shards, lookahead %v: fired %d events, serial fired %d",
				k, lookahead, ss.EventsFired(), serial.EventsFired())
		}
		if ss.Pending() != 0 {
			t.Fatalf("%d shards: %d events pending after Run", k, ss.Pending())
		}
		for c := range want {
			if fmt.Sprint(got[c]) != fmt.Sprint(want[c]) {
				t.Fatalf("%d shards, lookahead %v: component %d log\n got %v\nwant %v",
					k, lookahead, c, got[c], want[c])
			}
		}
	})
}
