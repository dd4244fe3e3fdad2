package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/fanout"
	"github.com/hd-index/hdindex/internal/iofault"
	"github.com/hd-index/hdindex/internal/leakcheck"
	"github.com/hd-index/hdindex/internal/pager"
)

// spreadParams is a 2-shard layout whose τ·α reaches the walk split, so
// at GOMAXPROCS(τ+1) every layer of the fan-out — queries of a batch,
// shards of a scatter, trees of a walk — can take a helper.
func spreadParams() Params {
	return Params{
		Params: core.Params{Tau: 4, Omega: 8, M: 4, Alpha: 1024, Gamma: 128, Seed: 13, MemtableMaxVectors: 1 << 20},
		Shards: 2,
	}
}

// A 2-shard Query and QueryBatch answer the same however many helpers
// join: results and every work counter, alone on one CPU and at τ+1,
// on a fresh layout and beside a memtable.
func TestShardedQueryIdenticalAcrossHelperCounts(t *testing.T) {
	ds := testData(t, 2400)
	p := spreadParams()
	s, err := Build(filepath.Join(t.TempDir(), "ix"), ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	queries := ds.PerturbedQueries(12, 0.02, 14)

	compare := func(stage string) {
		t.Helper()
		type answer struct {
			res []core.Result
			st  *core.QueryStats
		}
		var want []answer
		for _, procs := range []int{1, p.Tau + 1} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				batch, stats, err := s.QueryBatch(context.Background(), queries, 10, core.SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					res, st, err := s.Query(context.Background(), q, 10, core.SearchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s, GOMAXPROCS %d, query %d", stage, procs, qi)
					requireSameResults(t, label+" batch", batch[qi], res)
					requireSameWork(t, label+" batch", stats[qi], st)
					if len(want) <= qi {
						want = append(want, answer{res, st})
						continue
					}
					requireSameResults(t, label, res, want[qi].res)
					requireSameWork(t, label, st, want[qi].st)
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
func requireSameWork(t *testing.T, label string, got, want *core.QueryStats) {
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
	p := spreadParams()
	dir := filepath.Join(t.TempDir(), "ix")
	s, err := Build(dir, ds.Vectors, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.Tau + 1))
	queries := ds.PerturbedQueries(16, 0.02, 16)

	// The query calls run on the layout opened with the cache off, so a
	// query reads tree pages again and the EIO rule, armed before the
	// open and counting the open's own reads, fires inside it.
	calls := []struct {
		name  string
		fault iofault.Rule // fails the call
		run   func(ctx context.Context, t *testing.T, s *Sharded) error
	}{
		{"Build", iofault.Rule{PathGlob: "tree_02.pg", Op: iofault.OpWrite, AfterCalls: 1},
			func(ctx context.Context, t *testing.T, _ *Sharded) error {
				s, err := BuildContext(ctx, filepath.Join(t.TempDir(), "ix"), ds.Vectors, p)
				if err == nil {
					s.Close()
				}
				return err
			}},
		{"core QueryBatch", iofault.Rule{PathGlob: "tree_01.pg", Op: iofault.OpRead, AfterCalls: 8},
			func(ctx context.Context, t *testing.T, s *Sharded) error {
				_, _, err := s.shards[0].QueryBatch(ctx, queries, 10, core.SearchOptions{})
				return err
			}},
		{"sharded QueryBatch", iofault.Rule{PathGlob: "tree_01.pg", Op: iofault.OpRead, AfterCalls: 8},
			func(ctx context.Context, t *testing.T, s *Sharded) error {
				_, _, err := s.QueryBatch(ctx, queries, 10, core.SearchOptions{})
				return err
			}},
		{"sharded Query", iofault.Rule{PathGlob: "tree_01.pg", Op: iofault.OpRead, AfterCalls: 8},
			func(ctx context.Context, t *testing.T, s *Sharded) error {
				_, _, err := s.Query(ctx, queries[0], 10, core.SearchOptions{})
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
				if c.name == "Build" {
					return c.run(ctx, t, nil)
				}
				s, err := Open(dir, core.OpenOptions{DisableCache: true})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				return c.run(ctx, t, s)
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

			if err := call(t, context.Background(), &c.fault); !errors.Is(err, pager.ErrIO) {
				t.Fatalf("failing: err = %v, want pager.ErrIO", err)
			}
		})
	}
}
