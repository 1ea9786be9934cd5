package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// WorkerPool is a reusable fixed-fan-out executor for barrier-time work:
// Do(fn) runs fn(w) once per worker w in [0, Workers()) and returns when
// every invocation has finished. Worker 0 always runs inline on the
// caller; the remaining workers run on persistent goroutines parked
// between calls, started lazily at the first parallel Do — so a pool of
// one worker never starts a goroutine at all, and a pool that is built
// but never used costs nothing.
//
// The pool exists for the conservative barrier's fleet sweeps: spawning
// goroutines per sweep would cost a allocation-and-schedule round trip
// every virtual tick, while parked workers cost one channel send each.
// Determinism is the caller's contract: Do imposes no ordering between
// workers, so fn must write only worker-private state (disjoint index
// ranges), with any cross-worker reduction performed by the caller after
// Do returns, in worker order.
//
// A panic in fn does not kill the process from a worker goroutine: every
// worker's panic is recovered, and once all workers have returned, Do
// re-raises on the caller, lowest worker index first.
//
// A WorkerPool is not itself safe for concurrent Do calls; one barrier
// hook owns it at a time, which is exactly how the sharded kernel runs.
type WorkerPool struct {
	n      int
	fn     func(int)
	wake   []chan struct{}
	done   sync.WaitGroup
	failed []string
	closed bool
}

// NewWorkerPool builds a pool of n workers; n <= 0 means GOMAXPROCS.
func NewWorkerPool(n int) *WorkerPool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &WorkerPool{n: n, failed: make([]string, n)}
}

// Workers returns the pool's fan-out.
func (p *WorkerPool) Workers() int { return p.n }

// Do runs fn(w) for every worker w in [0, n) and blocks until all have
// returned. fn must confine its writes to worker-private state.
func (p *WorkerPool) Do(fn func(worker int)) {
	if p.closed {
		panic("sim: Do on a closed WorkerPool")
	}
	p.fn = fn
	if p.n > 1 {
		if p.wake == nil {
			p.start()
		}
		p.done.Add(p.n - 1)
		for w := 1; w < p.n; w++ {
			p.wake[w] <- struct{}{}
		}
	}
	p.run(0)
	p.done.Wait()
	p.fn = nil
	raise(p.failed)
}

// start launches the parked goroutines of workers 1..n-1.
func (p *WorkerPool) start() {
	p.wake = make([]chan struct{}, p.n)
	for w := 1; w < p.n; w++ {
		ch := make(chan struct{}, 1)
		p.wake[w] = ch
		go func(w int, ch chan struct{}) {
			for range ch {
				p.run(w)
				p.done.Done()
			}
		}(w, ch)
	}
}

// run calls the current fn for worker w, recording a panic in
// p.failed[w] instead of letting it unwind the worker.
func (p *WorkerPool) run(w int) {
	defer func() {
		if r := recover(); r != nil {
			p.failed[w] = recovered(fmt.Sprintf("sim: worker %d", w), r)
		}
	}()
	p.fn(w)
}

// Close parks the pool permanently, stopping its goroutines. Idempotent;
// Do after Close panics.
func (p *WorkerPool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for w := 1; w < len(p.wake); w++ {
		close(p.wake[w])
	}
}

// recovered formats a panic caught in a parallel section: where it
// happened, the panic value, and the panicking goroutine's stack, which
// the re-raise on the coordinator would otherwise lose.
func recovered(where string, r any) string {
	return fmt.Sprintf("%s: %v\n\n%s", where, r, debug.Stack())
}

// raise re-panics with every recorded failure, lowest index first, and
// clears them; it returns normally when nothing failed.
func raise(failed []string) {
	var msgs []string
	for i, f := range failed {
		if f != "" {
			msgs = append(msgs, f)
			failed[i] = ""
		}
	}
	if msgs != nil {
		panic(strings.Join(msgs, "\n"))
	}
}

// SetBarrierParallelism sets the size of the kernel's barrier worker
// pool (0 = GOMAXPROCS, the default). It must be called before the first
// BarrierPool call; the pool's fan-out is fixed once built.
func (ss *ShardedSimulator) SetBarrierParallelism(n int) {
	if ss.pool != nil {
		panic(fmt.Sprintf("sim: SetBarrierParallelism(%d) after the barrier pool was built", n))
	}
	ss.barrierWorkers = n
}

// BarrierPool returns the kernel's reusable barrier worker pool, built at
// first use with the SetBarrierParallelism fan-out. Barrier hooks fan
// fleet-wide work (the PeerSet sweep) across it; because the hook runs
// single-threaded between windows, the pool needs no locking of its own.
// Callers that finish with the kernel should Close the pool to release
// its parked goroutines (the fleet experiment defers exactly that).
func (ss *ShardedSimulator) BarrierPool() *WorkerPool {
	if ss.pool == nil {
		ss.pool = NewWorkerPool(ss.barrierWorkers)
	}
	return ss.pool
}
