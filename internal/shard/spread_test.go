package shard_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/fanout"
	"github.com/hd-index/hdindex/internal/iofault"
	"github.com/hd-index/hdindex/internal/leakcheck"
	"github.com/hd-index/hdindex/internal/shard"
)

// spreadOpts is a 2-shard layout whose τ·α reaches the walk split, so
// at GOMAXPROCS(τ+1) every layer of the fan-out — queries of a batch,
// shards of a scatter, trees of a walk — can take a helper.
func spreadOpts() hdindex.Options {
	return hdindex.Options{Tau: 4, Omega: 8, M: 4, Alpha: 1024, Gamma: 128, Seed: 13, MemtableMaxVectors: 1 << 20, Shards: 2}
}

// A 2-shard Query and QueryBatch answer the same however many helpers
// join: results and every work counter, alone on one CPU and at τ+1,
// on a fresh layout and beside a memtable.
func TestShardedQueryIdenticalAcrossHelperCounts(t *testing.T) {
	ds := testData(t, 2400)
	opts := spreadOpts()
	s, _ := build(t, ds.Vectors, opts)
	defer s.Close()
	queries := ds.PerturbedQueries(12, 0.02, 14)

	compare := func(stage string) {
		t.Helper()
		var want []hdindex.Response
		for _, procs := range []int{1, opts.Tau + 1} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				batch, err := s.QueryBatch(ctx, queries, 10, hdindex.WithStats())
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					resp, err := s.Query(ctx, q, 10, hdindex.WithStats())
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s, GOMAXPROCS %d, query %d", stage, procs, qi)
					requireSameResults(t, label+" batch", batch[qi].Results, resp.Results)
					requireSameWork(t, label+" batch", batch[qi].Stats, resp.Stats)
					if len(want) <= qi {
						want = append(want, resp)
						continue
					}
					requireSameResults(t, label, resp.Results, want[qi].Results)
					requireSameWork(t, label, resp.Stats, want[qi].Stats)
				}
			}()
		}
	}

	compare("fresh build")
	for _, v := range ds.PerturbedQueries(200, 0.05, 15) {
		if _, err := s.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	compare("memtable")
}

// requireSameWork fails unless two runs of one query did the same work.
func requireSameWork(t *testing.T, label string, got, want *hdindex.Stats) {
	t.Helper()
	if got.Candidates != want.Candidates || got.ExactDistances != want.ExactDistances ||
		got.TreeEntries != want.TreeEntries || got.MemtableScanned != want.MemtableScanned {
		t.Fatalf("%s: work differs: %d candidates / %d distances / %d entries / %d memtable, want %d / %d / %d / %d",
			label, got.Candidates, got.ExactDistances, got.TreeEntries, got.MemtableScanned,
			want.Candidates, want.ExactDistances, want.TreeEntries, want.MemtableScanned)
	}
}

// Helpers never outlive the call that recruited them. A sharded Build, a
// core and a sharded QueryBatch and a sharded Query each succeed, are
// cancelled, and fail on an EIO from one tree file; after every call the
// busy count is back where it started, no goroutine is left, and the
// error is the one the failing part returned. Run at GOMAXPROCS(τ+1);
// `make chaos` runs it with -race -count=10.
func TestFaultSpreadHelpersExit(t *testing.T) {
	ds := testData(t, 1200)
	opts := spreadOpts()
	s, dir := build(t, ds.Vectors, opts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(opts.Tau + 1))
	queries := ds.PerturbedQueries(16, 0.02, 16)

	// The query calls open the layout with the cache off, so a query
	// reads tree pages again and the EIO rule, armed before the open and
	// counting the open's own reads, fires inside it.
	open := func(t *testing.T) *hdindex.Index {
		t.Helper()
		ix, err := hdindex.Open(dir, hdindex.Options{DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	calls := []struct {
		name  string
		fault iofault.Rule // fails the call
		run   func(ctx context.Context, t *testing.T) error
	}{
		{"Build", iofault.Rule{PathGlob: "tree_02.pg", Op: iofault.OpWrite, AfterCalls: 1},
			func(ctx context.Context, t *testing.T) error {
				ix, err := hdindex.BuildContext(ctx, filepath.Join(t.TempDir(), "ix"), ds.Vectors, opts)
				if err == nil {
					ix.Close()
				}
				return err
			}},
		{"core QueryBatch", iofault.Rule{PathGlob: "tree_01.pg", Op: iofault.OpRead, AfterCalls: 8},
			func(ctx context.Context, t *testing.T) error {
				ix, err := core.Open(shard.Dir(dir, 0), core.OpenOptions{DisableCache: true})
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				_, _, err = ix.QueryBatch(ctx, queries, 10, core.SearchOptions{})
				return err
			}},
		{"sharded QueryBatch", iofault.Rule{PathGlob: "tree_01.pg", Op: iofault.OpRead, AfterCalls: 8},
			func(ctx context.Context, t *testing.T) error {
				ix := open(t)
				defer ix.Close()
				_, err := ix.QueryBatch(ctx, queries, 10)
				return err
			}},
		{"sharded Query", iofault.Rule{PathGlob: "tree_01.pg", Op: iofault.OpRead, AfterCalls: 8},
			func(ctx context.Context, t *testing.T) error {
				ix := open(t)
				defer ix.Close()
				_, err := ix.Query(ctx, queries[0], 10)
				return err
			}},
	}
	for _, c := range calls {
		// call runs c once under ctx, with fault armed when it is not nil,
		// and checks that it left no helper behind.
		call := func(t *testing.T, ctx context.Context, fault *iofault.Rule) error {
			t.Helper()
			idle := fanout.Idle()
			check := leakcheck.Check(t)
			err := func() error {
				if fault != nil {
					defer iofault.SetGlobal(iofault.NewInjector(*fault))()
				}
				return c.run(ctx, t)
			}()
			check()
			if got := fanout.Idle(); got != idle {
				t.Fatalf("idle CPUs %d after the call, %d before: the busy count leaked", got, idle)
			}
			return err
		}
		t.Run(c.name, func(t *testing.T) {
			if err := call(t, context.Background(), nil); err != nil {
				t.Fatalf("success: %v", err)
			}

			// A cancel racing the call lands before it, inside it or after
			// it; retry until one lands in time.
			cancelled := false
			for trial := 0; trial < 100 && !cancelled; trial++ {
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				go func() {
					cancel()
					close(done)
				}()
				err := call(t, ctx, nil)
				<-done
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled: err = %v, want context.Canceled", err)
				}
				cancelled = err != nil
			}
			if !cancelled {
				t.Fatal("no call observed the cancellation in 100 trials")
			}

			if err := call(t, context.Background(), &c.fault); !errors.Is(err, hdindex.ErrIO) {
				t.Fatalf("failing: err = %v, want ErrIO", err)
			}
		})
	}
}
