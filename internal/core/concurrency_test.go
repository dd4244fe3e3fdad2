package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/data"
)

// QueryBatch must return results in input order however many helpers
// join it: batch results and work counters must equal per-query
// sequential ones, alone on one CPU and with τ helpers.
func TestSearchBatchPreservesOrder(t *testing.T) {
	p := Params{Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 1}
	ix, ds, _ := buildSmall(t, 1500, p)
	queries := ds.PerturbedQueries(50, 0.02, 2)

	want := make([][]Result, len(queries))
	wantStats := make([]*QueryStats, len(queries))
	for i, q := range queries {
		var err error
		want[i], wantStats[i], err = ix.Query(context.Background(), q, 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	eachHelperCount(p.Tau, func(procs int) {
		got, stats, err := ix.QueryBatch(context.Background(), queries, 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: batch returned %d result sets, want %d", procs, len(got), len(want))
		}
		for qi := range want {
			label := fmt.Sprintf("GOMAXPROCS %d, query %d", procs, qi)
			requireIdentical(t, label, got[qi], want[qi])
			requireSameWork(t, label, stats[qi], wantStats[qi])
		}
	})
}

// The batch's helpers are bounded by GOMAXPROCS: one helper, a few, and
// more helpers than queries must each answer every query.
func TestSearchBatchWorkerBounds(t *testing.T) {
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 3}
	ix, ds, _ := buildSmall(t, 400, p)
	queries := ds.PerturbedQueries(9, 0.02, 4)
	for _, procs := range []int{1, 2, 16} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			res, _, err := ix.QueryBatch(context.Background(), queries, 3, SearchOptions{})
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			if len(res) != len(queries) {
				t.Fatalf("GOMAXPROCS %d: %d result sets", procs, len(res))
			}
			for qi, r := range res {
				if len(r) != 3 {
					t.Fatalf("GOMAXPROCS %d, query %d: %d results, want 3", procs, qi, len(r))
				}
			}
		}()
	}
}

// Concurrent searches, inserts, and deletes must be race-clean (run
// under -race in CI) and never corrupt results.
func TestConcurrentSearchInsertDelete(t *testing.T) {
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 5}
	ix, ds, queries := buildSmall(t, 800, p)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 64)

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := ix.Query(context.Background(), queries[(w+i)%len(queries)], 5, SearchOptions{})
				if err != nil {
					errCh <- err
					return
				}
				if len(res) == 0 {
					errCh <- errors.New("search returned no results")
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := ix.Insert(ds.Vectors[i%len(ds.Vectors)]); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			id := uint64(i % 100)
			if err := ix.Delete(id); err != nil {
				errCh <- err
				return
			}
			if err := ix.Undelete(id); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = ix.Count()
			_, _, _ = ix.QueryBatch(context.Background(), queries[:4], 3, SearchOptions{})
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	timer := time.NewTimer(2 * time.Second)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-done:
	}
	close(stop)
	<-done
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// A search given an already-cancelled context must not do any work.
func TestSearchCancelledContext(t *testing.T) {
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 6}
	ix, _, queries := buildSmall(t, 400, p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ix.Query(ctx, queries[0], 5, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// An in-flight search must abort promptly once its context is
// cancelled: with cancellation racing a stream of searches, cancelled
// calls return context.Canceled instead of running to completion.
func TestSearchAbortsOnCancel(t *testing.T) {
	// A deliberately heavy configuration so a single search has many
	// cancellation checkpoints to hit.
	ds := data.Generate(data.Config{N: 4000, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 7})
	p := Params{Tau: 4, Omega: 8, M: 8, Alpha: 1024, Gamma: 1024, Seed: 7}
	ix, err := Build(t.TempDir(), ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	queries := ds.PerturbedQueries(4, 0.02, 8)

	var cancelled atomic.Int64
	for trial := 0; trial < 20 && cancelled.Load() == 0; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel() // race the cancel against the search
		for _, q := range queries {
			if _, _, err := ix.Query(ctx, q, 10, SearchOptions{}); errors.Is(err, context.Canceled) {
				cancelled.Add(1)
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		cancel()
	}
	if cancelled.Load() == 0 {
		t.Fatal("no search observed the cancellation in 20 trials")
	}
}

// A deadline that has already passed must fail with DeadlineExceeded.
func TestSearchDeadlineExceeded(t *testing.T) {
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 9}
	ix, _, queries := buildSmall(t, 400, p)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := ix.Query(ctx, queries[0], 5, SearchOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// QueryBatch must stop dispatching once cancelled and report ctx.Err().
func TestSearchBatchCancellation(t *testing.T) {
	p := Params{Tau: 2, Omega: 8, M: 3, Alpha: 64, Gamma: 16, Seed: 10}
	ix, ds, _ := buildSmall(t, 400, p)
	queries := ds.PerturbedQueries(200, 0.02, 11)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ix.QueryBatch(ctx, queries, 3, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, _, err := ix.QueryBatch(ctx2, queries, 3, SearchOptions{})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled batch took %v to return", elapsed)
	}
	// The batch may have finished under the deadline on a fast machine;
	// only a non-context error is wrong.
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}
