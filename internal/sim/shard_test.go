package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestShardedBasics(t *testing.T) {
	ss := NewSharded(4, 0.5)
	var order []string
	for i := 0; i < 4; i++ {
		i := i
		ss.Shard(i).At(float64(4-i), func() { order = append(order, fmt.Sprintf("s%d@%g", i, float64(4-i))) })
	}
	ss.Run()
	// Each event is on its own shard at a distinct time: global execution
	// order follows virtual time because every window's horizon bounds it.
	want := "s3@1 s2@2 s1@3 s0@4"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("execution order %q, want %q", got, want)
	}
	if ss.EventsFired() != 4 {
		t.Fatalf("events fired %d, want 4", ss.EventsFired())
	}
	if ss.Pending() != 0 {
		t.Fatalf("pending %d after drain", ss.Pending())
	}
}

func TestShardedRunUntilAdvancesClocks(t *testing.T) {
	ss := NewSharded(3, 1)
	fired := 0
	ss.Shard(0).At(1, func() { fired++ })
	ss.Shard(1).At(2.5, func() { fired++ })
	ss.Shard(2).At(7, func() { fired++ })
	ss.RunUntil(2.5)
	if fired != 2 {
		t.Fatalf("fired %d events by 2.5, want 2 (the 7s event must wait)", fired)
	}
	for i := 0; i < 3; i++ {
		if now := ss.Shard(i).Now(); now != 2.5 {
			t.Fatalf("shard %d clock %v after RunUntil(2.5)", i, now)
		}
	}
	if ss.Pending() != 1 {
		t.Fatalf("pending %d, want the 7s event still queued", ss.Pending())
	}
	ss.Run()
	if fired != 3 {
		t.Fatalf("fired %d after drain, want 3", fired)
	}
}

func TestShardedEventAtExactLimitRuns(t *testing.T) {
	ss := NewSharded(2, 0.25)
	fired := false
	ss.Shard(1).At(3, func() { fired = true })
	ss.RunUntil(3)
	if !fired {
		t.Fatal("event scheduled exactly at the RunUntil limit did not run")
	}
}

// TestShardedBarrierHook asserts the barrier hook runs after every window
// with strictly increasing horizons, and that everything executed so far
// is strictly before the reported horizon.
func TestShardedBarrierHook(t *testing.T) {
	ss := NewSharded(3, 0.5)
	// Each shard writes only its own slot during a window; the barrier,
	// single-threaded, reads them all.
	lastFired := [3]Time{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i := 0; i < 3; i++ {
		i := i
		sh := ss.Shard(i)
		var tick func()
		n := 0
		tick = func() {
			lastFired[i] = sh.Now()
			if n++; n < 5 {
				sh.After(0.7, tick)
			}
		}
		sh.At(float64(i)*0.2, tick)
	}
	prev := math.Inf(-1)
	calls := 0
	ss.SetBarrier(func(h Time) {
		calls++
		if h <= prev {
			t.Fatalf("barrier horizon %v not increasing past %v", h, prev)
		}
		for i, last := range lastFired {
			if last >= h {
				t.Fatalf("shard %d event at %v executed at or beyond its window horizon %v", i, last, h)
			}
		}
		prev = h
	})
	ss.Run()
	if calls == 0 {
		t.Fatal("barrier hook never ran")
	}
	if ss.EventsFired() != 15 {
		t.Fatalf("events fired %d, want 15", ss.EventsFired())
	}
}

// componentChecksums runs the same multi-component workload at the given
// shard count and returns one checksum per component, folding together
// each component's RNG draws and event times. Components interact only
// with themselves, draw from identity-forked RNG streams, and are
// assigned to shards by identity hash — the discipline under which
// results must be bitwise identical at any shard count.
func componentChecksums(t *testing.T, shards int) ([]uint64, uint64) {
	t.Helper()
	const components = 64
	ss := NewSharded(shards, 0.25)
	sums := make([]uint64, components)
	root := NewRNG(42)
	for c := 0; c < components; c++ {
		c := c
		name := fmt.Sprintf("c%02d", c)
		rng := root.Fork(name)
		sh := ss.Shard(ss.ShardFor(name))
		var step func()
		n := 0
		step = func() {
			draw := rng.Uint64()
			sums[c] = sums[c]*1099511628211 ^ draw ^ math.Float64bits(sh.Now())
			if n++; n < 50 {
				sh.After(0.01+rng.Float64(), step)
			}
		}
		sh.At(rng.Float64(), step)
	}
	ss.Run()
	return sums, ss.EventsFired()
}

// TestShardedDeterminismAcrossShardCounts is the kernel-level version of
// the suite's byte-identity guarantee: per-component results and the
// total event count are identical at 1, 2, 4 and 8 shards.
func TestShardedDeterminismAcrossShardCounts(t *testing.T) {
	baseSums, baseFired := componentChecksums(t, 1)
	for _, shards := range []int{2, 4, 8} {
		sums, fired := componentChecksums(t, shards)
		if fired != baseFired {
			t.Fatalf("%d shards fired %d events, 1 shard fired %d", shards, fired, baseFired)
		}
		for c := range sums {
			if sums[c] != baseSums[c] {
				t.Fatalf("component %d checksum differs at %d shards: %x vs %x",
					c, shards, sums[c], baseSums[c])
			}
		}
	}
}

func TestShardedConstructionPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero shards", func() { NewSharded(0, 1) }},
		{"zero lookahead", func() { NewSharded(2, 0) }},
		{"negative lookahead", func() { NewSharded(2, -1) }},
		{"infinite lookahead", func() { NewSharded(2, math.Inf(1)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// TestShardedStationsPerShard runs real stations pinned to shards and
// checks completions match a serial run — the station layer needs no
// changes to run sharded, because each shard is a full kernel.
func TestShardedStationsPerShard(t *testing.T) {
	run := func(shards int) []uint64 {
		ss := NewSharded(shards, 0.5)
		const n = 12
		stations := make([]*Station, n)
		for i := range stations {
			name := fmt.Sprintf("st%02d", i)
			sh := ss.Shard(ss.ShardFor(name))
			st := NewStation(sh, name, float64(i+1))
			stations[i] = st
			var pump func(r *Request)
			left := 20
			pump = func(r *Request) {
				if left--; left > 0 {
					st.SubmitFunc(1, pump)
				}
			}
			st.SubmitFunc(1, pump)
		}
		ss.Run()
		out := make([]uint64, n)
		for i, st := range stations {
			out[i] = st.Completed()
		}
		return out
	}
	serial := run(1)
	for _, shards := range []int{2, 4} {
		got := run(shards)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("station %d completed %d at %d shards, %d serial", i, got[i], shards, serial[i])
			}
		}
	}
}

// TestShardForBalance hashes 1M identities and checks the max/min shard
// population stays within 2% of the mean — the placement balance the
// fleet relies on, which is why the kernel needs no placement plan.
func TestShardForBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-identity balance check skipped in -short")
	}
	for _, shards := range []int{4, 8} {
		ss := NewSharded(shards, 1)
		counts := make([]int, shards)
		const n = 1 << 20
		for i := 0; i < n; i++ {
			counts[ss.ShardFor(fmt.Sprintf("component-%07d", i))]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		mean := float64(n) / float64(shards)
		if spread := float64(max-min) / mean; spread > 0.02 {
			t.Fatalf("%d shards: population spread %.4f of mean (min %d, max %d) exceeds 2%%",
				shards, spread, min, max)
		}
	}
}

// TestShardedWindowPanicNamesShard panics in an event on shard 1 of 2
// while shard 0 also has work in the window, so the two run on window
// goroutines. The panic must surface on the coordinator, naming the shard
// and the window horizon, after shard 0 finished its window; and the
// barrier pool must still close cleanly.
func TestShardedWindowPanicNamesShard(t *testing.T) {
	ss := NewSharded(2, 1)
	pool := ss.BarrierPool()
	shard0Done := false
	ss.Shard(0).At(0.5, func() {})
	ss.Shard(0).At(0.75, func() { shard0Done = true })
	ss.Shard(1).At(0.5, func() { panic("boom") })
	got := func() (r any) {
		defer func() { r = recover() }()
		ss.Run()
		return nil
	}()
	msg, ok := got.(string)
	if !ok {
		t.Fatalf("recovered %T %v, want a string panic", got, got)
	}
	if want := "sim: shard 1 window to 1.5: boom\n"; !strings.HasPrefix(msg, want) {
		t.Fatalf("panic message %q, want prefix %q", msg, want)
	}
	if !strings.Contains(msg, "goroutine ") {
		t.Fatalf("panic message carries no stack of the failing goroutine: %q", msg)
	}
	if !shard0Done {
		t.Fatal("the panic unwound before shard 0 finished its window")
	}
	pool.Close()
	pool.Close()
}
