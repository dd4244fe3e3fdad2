package fanout

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Each runs every part once and, when none fails, returns nil, at any
// helper count.
func TestEachAll(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var hit [20]atomic.Int32
			err := Each(context.Background(), len(hit), func(_ context.Context, i int) error {
				hit[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range hit {
				if n := hit[i].Load(); n != 1 {
					t.Fatalf("GOMAXPROCS %d: part %d ran %d times", procs, i, n)
				}
			}
		}()
	}
}

// Without helpers the parts run in order: the first failure is the one
// reported, and every later part is skipped.
func TestEachFirstErrorInPartOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ran atomic.Int32
	err := Each(context.Background(), 100, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 3 || i == 7 {
			return fmt.Errorf("part %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "part 3" {
		t.Fatalf("err = %v, want part 3's", err)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("%d parts ran, want 4: the failure must skip the rest", n)
	}
}

// A failure cancels the ctx a running part sees; the cancellation it
// causes in a lower-numbered part does not mask it.
func TestEachFailureWinsOverTheCancellationItCaused(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	boom := errors.New("boom")
	err := Each(context.Background(), 2, func(ctx context.Context, i int) error {
		if i == 1 {
			return boom
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("part 1's failure never cancelled part 0")
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestEachParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Each(ctx, 10, func(context.Context, int) error {
		t.Error("a part ran under a cancelled ctx")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestEachEmpty(t *testing.T) {
	if err := Each(context.Background(), 0, func(context.Context, int) error {
		t.Fatal("fn must not run")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Enter under a ctx it marked counts nothing: a nested unit of work on a
// counted goroutine takes no second CPU place.
func TestEnterCountsOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	idle := Idle()
	ctx, leave := Enter(context.Background())
	inner, leaveInner := Enter(ctx)
	if got := Idle(); got != idle-1 {
		t.Fatalf("%d idle CPUs after two nested Enters, want %d", got, idle-1)
	}
	Each(inner, 3, func(ctx context.Context, _ int) error {
		_, l := Enter(ctx)
		l()
		return nil
	})
	leaveInner()
	if got := Idle(); got != idle-1 {
		t.Fatalf("%d idle CPUs after the inner leave, want %d", got, idle-1)
	}
	leave()
	if got := Idle(); got != idle {
		t.Fatalf("%d idle CPUs after leave, want %d", got, idle)
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
			_, leave := Enter(context.Background())
			defer leave()
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
	_, leave1 := Enter(context.Background())
	_, leave2 := Enter(context.Background()) // a second query holds the other CPU
	defer leave1()
	defer leave2()
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
