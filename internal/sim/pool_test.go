package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkerPoolRunsEveryWorker checks the fan-out contract — fn(w) runs
// exactly once per worker per Do — across repeated dispatches of the
// same pool (the parked-goroutine reuse path).
func TestWorkerPoolRunsEveryWorker(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		p := NewWorkerPool(n)
		if p.Workers() != n {
			t.Fatalf("Workers() = %d, want %d", p.Workers(), n)
		}
		counts := make([]int64, n)
		for round := 0; round < 50; round++ {
			p.Do(func(w int) { atomic.AddInt64(&counts[w], 1) })
		}
		for w, c := range counts {
			if c != 50 {
				t.Fatalf("n=%d: worker %d ran %d times, want 50", n, w, c)
			}
		}
		p.Close()
	}
}

// TestWorkerPoolDefaultSize pins the n<=0 default to GOMAXPROCS.
func TestWorkerPoolDefaultSize(t *testing.T) {
	p := NewWorkerPool(0)
	defer p.Close()
	if want := runtime.GOMAXPROCS(0); p.Workers() != want {
		t.Fatalf("NewWorkerPool(0).Workers() = %d, want GOMAXPROCS %d", p.Workers(), want)
	}
}

// TestWorkerPoolDisjointWrites checks the caller's intended usage: each
// worker filling a contiguous chunk of one shared slice, reduced by the
// caller after Do. Any lost update or torn barrier shows up as a wrong
// element.
func TestWorkerPoolDisjointWrites(t *testing.T) {
	const n = 4
	const items = 1000
	p := NewWorkerPool(n)
	defer p.Close()
	out := make([]int, items)
	for round := 1; round <= 20; round++ {
		r := round
		p.Do(func(w int) {
			lo, hi := items*w/n, items*(w+1)/n
			for i := lo; i < hi; i++ {
				out[i] = r * i
			}
		})
		for i, v := range out {
			if v != r*i {
				t.Fatalf("round %d: out[%d] = %d, want %d", r, i, v, r*i)
			}
		}
	}
}

// TestWorkerPoolCloseIdempotent closes twice (must not panic) and pins
// the Do-after-Close panic.
func TestWorkerPoolCloseIdempotent(t *testing.T) {
	p := NewWorkerPool(4)
	p.Do(func(int) {})
	p.Close()
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Do after Close did not panic")
		}
	}()
	p.Do(func(int) {})
}

// TestWorkerPoolSerialNoGoroutines pins the n=1 fast path: a one-worker
// pool must never start goroutines, so the serial sweep stays exactly as
// cheap as having no pool at all.
func TestWorkerPoolSerialNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewWorkerPool(1)
	for i := 0; i < 100; i++ {
		p.Do(func(w int) {
			if w != 0 {
				t.Fatalf("serial pool ran worker %d", w)
			}
		})
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("serial pool grew goroutine count %d -> %d", before, after)
	}
	p.Close()
}

// TestBarrierPoolLifecycle checks the kernel accessors: the fan-out set
// before first use sticks, and setting it after the pool exists panics.
func TestBarrierPoolLifecycle(t *testing.T) {
	ss := NewSharded(2, 1)
	ss.SetBarrierParallelism(3)
	pool := ss.BarrierPool()
	defer pool.Close()
	if pool.Workers() != 3 {
		t.Fatalf("barrier pool has %d workers, want 3", pool.Workers())
	}
	if ss.BarrierPool() != pool {
		t.Fatal("BarrierPool did not return the same pool on second call")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetBarrierParallelism after BarrierPool did not panic")
		}
	}()
	ss.SetBarrierParallelism(5)
}

// TestWorkerPoolPanicNamesWorker panics in fn on worker 1 of 2: Do must
// re-raise on the caller, naming the worker and carrying the failing
// goroutine's stack. A panic on worker 0, which runs inline, must still
// wait for worker 1 before it unwinds. The pool stays usable afterwards
// and still closes cleanly.
func TestWorkerPoolPanicNamesWorker(t *testing.T) {
	p := NewWorkerPool(2)
	do := func(fn func(int)) (r any) {
		defer func() { r = recover() }()
		p.Do(fn)
		return nil
	}
	got := do(func(w int) {
		if w == 1 {
			panic("boom")
		}
	})
	msg, ok := got.(string)
	if !ok {
		t.Fatalf("recovered %T %v, want a string panic", got, got)
	}
	if want := "sim: worker 1: boom\n"; !strings.HasPrefix(msg, want) {
		t.Fatalf("panic message %q, want prefix %q", msg, want)
	}
	if !strings.Contains(msg, "goroutine ") {
		t.Fatalf("panic message carries no stack of the failing goroutine: %q", msg)
	}

	var worker1Done atomic.Bool
	got = do(func(w int) {
		if w == 0 {
			panic("inline")
		}
		time.Sleep(20 * time.Millisecond)
		worker1Done.Store(true)
	})
	if msg := fmt.Sprint(got); !strings.HasPrefix(msg, "sim: worker 0: inline\n") {
		t.Fatalf("worker 0 panic message %q", msg)
	}
	if !worker1Done.Load() {
		t.Fatal("worker 0's panic unwound before worker 1 returned")
	}

	var ran atomic.Int64
	if r := do(func(int) { ran.Add(1) }); r != nil || ran.Load() != 2 {
		t.Fatalf("Do after a panic: recovered %v, ran %d workers, want nil and 2", r, ran.Load())
	}
	p.Close()
	p.Close()
}
