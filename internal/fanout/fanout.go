// Package fanout runs a bounded worker-pool fan-out with cooperative
// cancellation: the shape shared by core's batch search, shard's batch
// search, and shard's per-query scatter-gather. One implementation
// keeps the failure semantics — first error cancels the rest, parent
// cancellation wins the race to be reported — identical everywhere.
//
// Beside Run, Spread splits one query's work across idle CPUs only: a
// process-wide count of goroutines doing query work decides whether a
// helper may join, so a query runs alone whenever every core is already
// busy with another.
package fanout

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// busy counts the goroutines doing query work in this process: every
// query between Enter and Leave, and every helper Spread has recruited
// until it exits. CPUs are a process-wide resource, so the count is a
// package-level one; no answer depends on it, only how many goroutines
// compute the answer.
var busy atomic.Int32

// Enter counts the calling goroutine as doing query work until the
// matching Leave.
func Enter() { busy.Add(1) }

// Leave ends the count Enter started.
func Leave() { busy.Add(-1) }

// Idle returns how many CPUs no counted goroutine holds right now:
// GOMAXPROCS less the count, never below 0. It is a snapshot; Spread
// recruits by compare-and-swap, not by this value.
func Idle() int {
	return max(0, runtime.GOMAXPROCS(0)-int(busy.Load()))
}

// Job is work cut into parts that may run in any order, on any
// goroutine, concurrently with each other.
type Job interface {
	Do(part int)
}

// Spread runs job.Do(i) for every i in [0, n) and returns once every
// call has returned. The caller, which Enter counts, works through the
// parts itself, joined by one helper goroutine per CPU that is idle when
// Spread starts, at most n-1. A helper counts as busy until it exits,
// and it exits before Spread returns. An atomic counter hands the parts
// out in index order to whichever goroutine asks next, so with no idle
// CPU — every core already runs a query — no goroutine starts and the
// parts run in order on the caller.
func Spread(n int, job Job) {
	helpers := recruit(n - 1)
	if helpers == 0 {
		for i := 0; i < n; i++ {
			job.Do(i)
		}
		return
	}
	s := spreads.Get().(*spread)
	s.job, s.n = job, int64(n)
	s.next.Store(0)
	s.wg.Add(helpers)
	for range helpers {
		go s.help()
	}
	s.work()
	s.wg.Wait()
	s.job = nil
	spreads.Put(s)
}

// recruit reserves up to want helper places in the busy count, one per
// CPU the count leaves free, and returns how many it got.
func recruit(want int) int {
	if want <= 0 {
		return 0
	}
	limit := int32(runtime.GOMAXPROCS(0))
	got := 0
	for got < want {
		c := busy.Load()
		if c >= limit {
			break
		}
		if busy.CompareAndSwap(c, c+1) {
			got++
		}
	}
	return got
}

// spread is one Spread call's shared state, needed only when a helper
// joins. It is pooled, so a helper's goroutine is all a split allocates.
type spread struct {
	job  Job
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
}

var spreads = sync.Pool{New: func() any { return new(spread) }}

func (s *spread) work() {
	for i := s.next.Add(1) - 1; i < s.n; i = s.next.Add(1) - 1 {
		s.job.Do(int(i))
	}
}

// help is a recruited helper's body. It leaves the busy count before it
// signals the wait group, so the count is back where it was by the time
// Spread returns.
func (s *spread) help() {
	defer s.wg.Done()
	defer Leave()
	s.work()
}

// Run invokes fn(ctx, i) for every i in [0, n) on at most workers
// concurrent goroutines (workers <= 0 means GOMAXPROCS). The first
// error cancels the context passed to the remaining calls and is
// returned; work not yet dispatched is dropped. If the parent ctx is
// cancelled, ctx.Err() is returned unless a real error was recorded
// first.
func Run(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		failMu   sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		failMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		failMu.Unlock()
	}

	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				if fctx.Err() != nil {
					continue // drain without working
				}
				if err := fn(fctx, i); err != nil {
					fail(err)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case ch <- i:
		case <-fctx.Done():
			break dispatch
		}
	}
	close(ch)
	wg.Wait()

	// A worker cancelled by our own cancel() reports ctx.Canceled; the
	// caller should see the original cause. A recorded real error
	// therefore wins over the parent's cancellation, which is checked
	// second so dropped work still surfaces as an error.
	failMu.Lock()
	err := firstErr
	failMu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}
