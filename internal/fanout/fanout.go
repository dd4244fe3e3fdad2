// Package fanout is the engine's one rule for spending CPUs. HD-Index's
// only parallelism is independent parts: the τ trees a build writes and
// a query walks, the runs of a refinement, the queries of a batch, the
// shards of a scatter or a sharded build. A query, a batch or a build
// counts its own goroutine as busy (Enter), and splits its parts with
// Spread or Each, where helper goroutines join only on CPUs that no
// counted goroutine holds. So one client's work uses every idle core, and
// a loaded process runs each unit of work alone instead of
// oversubscribing the machine. No answer and no written byte depends on
// how many helpers join.
package fanout

import (
	"cmp"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// busy counts the goroutines doing engine work in this process: every
// caller between Enter and its leave, and every helper Spread has
// recruited until it exits. CPUs are a process-wide resource, so the
// count is a package-level one.
var busy atomic.Int32

// counted is the context key Enter marks a counted goroutine's ctx with.
type counted struct{}

// Enter counts the calling goroutine as busy until the returned leave is
// called, and returns ctx marked as counted. Under a marked ctx Enter
// counts nothing again: a query inside a batch or a scatter, or a shard's
// build inside a sharded one, runs on a goroutine already counted — the
// caller, or a helper Spread recruited — so it takes no second place.
func Enter(ctx context.Context) (context.Context, func()) {
	if ctx.Value(counted{}) != nil {
		return ctx, func() {}
	}
	busy.Add(1)
	return context.WithValue(ctx, counted{}, true), leave
}

func leave() { busy.Add(-1) }

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
// call has returned. The caller works through the parts itself, joined
// by one helper goroutine per CPU that is idle when Spread starts, at
// most n-1. A helper counts as busy until it exits, and it exits before
// Spread returns. An atomic counter hands the parts out in index order
// to whichever goroutine asks next, so with no idle CPU no goroutine
// starts and the parts run in order on the caller.
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
	defer leave()
	s.work()
}

// Each is Spread for parts that can fail: it runs fn(ctx, i) for every i
// in [0, n) under a context cancelled at the first failure, so parts
// still running see the cancellation and parts not yet started are
// skipped. It returns the error of the lowest-numbered part that failed,
// passing over the cancellations one part's failure caused in the
// others, or nil.
func Each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j := &each{ctx: ctx, cancel: cancel, fn: fn, errs: make([]error, n)}
	Spread(n, j)
	var induced error
	for _, err := range j.errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) && parent.Err() == nil:
			induced = cmp.Or(induced, err)
		default:
			return err
		}
	}
	return induced
}

// each is one Each call as a Job: part i's error lands in errs[i].
type each struct {
	ctx    context.Context
	cancel context.CancelFunc
	fn     func(context.Context, int) error
	errs   []error
}

func (j *each) Do(i int) {
	err := j.ctx.Err()
	if err == nil {
		err = j.fn(j.ctx, i)
	}
	if err != nil {
		j.errs[i] = err
		j.cancel()
	}
}
