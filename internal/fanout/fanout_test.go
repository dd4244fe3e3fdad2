package fanout

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunAll(t *testing.T) {
	var hit [20]int32
	err := Run(context.Background(), len(hit), 3, func(_ context.Context, i int) error {
		atomic.AddInt32(&hit[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestRunFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	err := Run(context.Background(), 100, 2, func(ctx context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := atomic.LoadInt32(&ran); n == 100 {
		t.Error("error did not stop the remaining work")
	}
}

func TestRunParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Run(ctx, 10, 2, func(ctx context.Context, i int) error { return ctx.Err() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunEmpty(t *testing.T) {
	if err := Run(context.Background(), 0, 4, func(context.Context, int) error {
		t.Fatal("fn must not run")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// countJob counts how many times each part ran.
type countJob struct{ hit [40]atomic.Int32 }

func (j *countJob) Do(i int) { j.hit[i].Add(1) }

// orderJob records the order parts ran in; safe only without helpers.
type orderJob struct{ order []int }

func (j *orderJob) Do(i int) { j.order = append(j.order, i) }

// Spread runs every part exactly once, whatever the helper count, and
// leaves the busy count where it found it.
func TestSpreadRunsEveryPartOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			Enter()
			defer Leave()
			idle := Idle()
			var j countJob
			Spread(len(j.hit), &j)
			for i := range j.hit {
				if n := j.hit[i].Load(); n != 1 {
					t.Fatalf("GOMAXPROCS %d: part %d ran %d times", procs, i, n)
				}
			}
			if got := Idle(); got != idle {
				t.Fatalf("GOMAXPROCS %d: %d idle CPUs after Spread, %d before", procs, got, idle)
			}
		}()
	}
}

// With every CPU held by counted work, Spread starts no goroutine and
// runs the parts in order on the caller.
func TestSpreadRecruitsOnlyIdleCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	Enter()
	Enter() // a second query holds the other CPU
	defer Leave()
	defer Leave()
	if Idle() != 0 {
		t.Fatalf("Idle() = %d with both CPUs counted", Idle())
	}
	var j orderJob
	Spread(10, &j)
	for i, part := range j.order {
		if part != i {
			t.Fatalf("parts ran in order %v, want 0..9 on the caller", j.order)
		}
	}
	if len(j.order) != 10 {
		t.Fatalf("ran %d parts, want 10", len(j.order))
	}
}
