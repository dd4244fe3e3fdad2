package main

import (
	"context"
	"fmt"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/baselines/linearscan"
	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/pager"
)

// target is an open single index, reached through the facade or —
// because the facade cannot size the buffer pool — through core.Open.
type target struct {
	query func(ctx context.Context, q []float32, stats bool) ([]hdindex.Result, *hdindex.Stats, error)
	batch func(ctx context.Context, qs [][]float32) ([][]hdindex.Result, error)
	io    func() pager.Stats
	size  func() int64
	count func() uint64
	close func() error
}

func openCore(dir string, poolPages int, so core.SearchOptions) (*target, error) {
	ix, err := core.Open(dir, core.OpenOptions{PoolPages: poolPages})
	if err != nil {
		return nil, err
	}
	return &target{
		query: func(ctx context.Context, q []float32, _ bool) ([]hdindex.Result, *hdindex.Stats, error) {
			return ix.Query(ctx, q, k, so)
		},
		batch: func(ctx context.Context, qs [][]float32) ([][]hdindex.Result, error) {
			res, _, err := ix.QueryBatch(ctx, qs, k, so)
			return res, err
		},
		io: ix.IOStats, size: ix.SizeOnDisk, count: ix.Count, close: ix.Close,
	}, nil
}

func openFacade(dir string, opts ...hdindex.QueryOption) (*target, error) {
	idx, err := hdindex.Open(dir, hdindex.Options{})
	if err != nil {
		return nil, err
	}
	withStats := append(append([]hdindex.QueryOption(nil), opts...), hdindex.WithStats())
	return &target{
		query: func(ctx context.Context, q []float32, stats bool) ([]hdindex.Result, *hdindex.Stats, error) {
			o := opts
			if stats {
				o = withStats
			}
			resp, err := idx.Query(ctx, q, k, o...)
			return resp.Results, resp.Stats, err
		},
		batch: func(ctx context.Context, qs [][]float32) ([][]hdindex.Result, error) {
			resps, err := idx.QueryBatch(ctx, qs, k, opts...)
			out := make([][]hdindex.Result, len(resps))
			for i, r := range resps {
				out[i] = r.Results
			}
			return out, err
		},
		io: idx.IOStats, size: idx.SizeOnDisk, count: idx.Count, close: idx.Close,
	}, nil
}

const batchChunks = 8

// singleSpec is what differs between warm-wide and cold-refine.
type singleSpec struct {
	open  func(dir string) (*target, error)
	alpha int
	seq   float64 // sequential passes per reference run
	batch float64 // QueryBatch passes per reference run
	// warmBatch warms up with one QueryBatch, not one query at a time.
	// Only safe where no page is ever evicted: each page is then read
	// once under its pool lock however the workers interleave, so the
	// read count still repeats exactly.
	warmBatch bool
	microSite bool // the traced run also hosts the layer micro-suite
}

func (b *bench) singleSpecs() map[string]singleSpec {
	return map[string]singleSpec{
		"warm-wide": {
			open: func(dir string) (*target, error) {
				return openCore(dir, b.sc.warmPool, core.SearchOptions{})
			},
			alpha: builtA, seq: b.sc.warmSeq, warmBatch: true, microSite: true,
		},
		"cold-refine": {
			open: func(dir string) (*target, error) {
				return openFacade(dir, hdindex.WithAlpha(512), hdindex.WithGamma(512))
			},
			alpha: 512, seq: b.sc.coldSeq,
		},
	}
}

func (b *bench) runSingle(spec singleSpec) error {
	ctx := context.Background()
	t0 := time.Now()
	mix := newMixture(b.sc.n, b.rng(rngData).Int63())
	base := mix.draw(b.sc.n)
	queries := makeQueries(base, b.sc.queries, b.rng(rngQueries))
	truth := bruteForce(base, seqIDs(len(base)), queries, k)
	b.prep = time.Since(t0)

	// Set-up: Build (median of numBuilds) + Open + one warm-up pass.
	dir, buildD, err := b.buildIndex(base, buildOptions(0, 0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	tgt, err := spec.open(dir)
	openD := time.Since(t0)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer tgt.close()
	b.tr.add("Open", -1, 0, t0, openD, nil)
	limit := tgt.count()

	// search runs one query as the caller sees it and checks the answer.
	var sums layerSums
	search := func(parent, qi int, traced bool, lat *timings) []neighbour {
		t0 := time.Now()
		res, st, err := tgt.query(ctx, queries[qi], traced)
		d := time.Since(t0)
		if err != nil {
			b.op("query: " + err.Error())
			return nil
		}
		if lat != nil {
			lat.add(t0, d)
		}
		if traced {
			b.tr.add("Query", parent, int64(qi), t0, d, sums.add(st, d))
		}
		nb := toNeighbours(res)
		b.op(badResult(nb, limit, nil))
		return nb
	}

	// checkBatch runs one QueryBatch over queries[lo:hi] and checks every
	// answer (against want, when given), returning the answers and the
	// time taken.
	checkBatch := func(op, lo, hi int, want [][]neighbour) ([][]neighbour, time.Duration) {
		t0 := time.Now()
		out, err := tgt.batch(ctx, queries[lo:hi])
		d := time.Since(t0)
		b.tr.add("QueryBatch", -1, int64(op), t0, d, nil)
		if err != nil {
			b.op("querybatch: " + err.Error())
			return nil, d
		}
		got := make([][]neighbour, len(out))
		for i, res := range out {
			got[i] = toNeighbours(res)
			reason := badResult(got[i], limit, nil)
			if reason == "" && want != nil && !sameResults(got[i], want[lo+i]) {
				reason = fmt.Sprintf("batch answer to query %d differs from the warm-up's", lo+i)
			}
			b.op(reason)
		}
		return got, d
	}

	t0 = time.Now()
	first := make([][]neighbour, len(queries))
	if spec.warmBatch {
		if first, _ = checkBatch(-1, 0, len(queries), nil); first == nil {
			return fmt.Errorf("warm-up failed: %s", b.reasons[0])
		}
	} else {
		for qi := range queries {
			first[qi] = search(-1, qi, false, nil)
		}
	}
	warmD := time.Since(t0)
	b.set("setup_s", (buildD + openD + warmD).Seconds())
	b.note("set-up: build %.3f s (median of %d) + open %.4f s + warm-up pass %.3f s", buildD.Seconds(), numBuilds, openD.Seconds(), warmD.Seconds())

	// Sequential passes: one client, every search timed. ops_per_s is this
	// closed loop's rate.
	var lat timings
	var score scorer
	seqStart := time.Now()
	seqPasses := b.scaled(spec.seq)
	for p := 0; p < seqPasses; p++ {
		pass := b.tr.open("sequential-pass", -1)
		run := func() {
			for qi := range queries {
				nb := search(pass, qi, b.tr != nil, &lat)
				if nb == nil {
					continue
				}
				if !sameResults(nb, first[qi]) {
					b.op(fmt.Sprintf("query %d answered differently on pass %d", qi, p))
				}
				if p == 0 {
					score.add(nb, truth[qi])
				}
			}
		}
		if b.tr != nil && p == 0 {
			allocs, bytes := memDelta(run)
			b.set("core.allocs_per_query", allocs/float64(len(queries)))
			b.set("core.alloc_bytes_per_query", bytes/float64(len(queries)))
		} else {
			run()
		}
		b.tr.finish(pass)
	}
	b.set("ops_per_s", lat.rate(seqStart))
	// Reads since Open over every search since Open, the warm-up's
	// compulsory misses included, so the count is never 0 and any read
	// during the measured passes of warm-wide raises it.
	b.set("page_reads_per_query", float64(tgt.io().Reads)/float64((seqPasses+1)*len(queries)))

	lat.emit(b)
	score.emit(b)
	b.set("index_bytes_per_vector", float64(tgt.size())/float64(limit))
	if b.tr == nil {
		return nil
	}

	// Traced extras.
	sums.emit(b, spec.alpha, 1)
	b.set("core.open_ms", float64(openD.Nanoseconds())/1e6)

	// Batch phase: QueryBatch with nproc workers over an eighth of the
	// query set at a time; the rate is the median call's, so one burst of
	// interference from the host does not set it. It is a per-layer
	// metric because two busy cores are what this container's host
	// disturbs most (README.md, "Bounds and measured spreads").
	var rates []float64
	for c := 0; c < batchChunks; c++ {
		lo, hi := c*len(queries)/batchChunks, (c+1)*len(queries)/batchChunks
		_, d := checkBatch(c, lo, hi, first)
		rates = append(rates, float64(hi-lo)/d.Seconds())
	}
	b.set("core.batch_qps", median(rates))
	b.note("batch phase: %d QueryBatch calls of %d queries, %d workers; rate is the median call's", batchChunks, len(queries)/batchChunks, nproc())

	// What tracing costs: two more passes back to back, one untraced and
	// one traced, so the host's speed drifts as little as possible
	// between them.
	var plain, traced timings
	for qi := range queries {
		search(-1, qi, false, &plain)
	}
	for qi := range queries { // sums were emitted above; this pass no longer feeds them
		search(-1, qi, true, &traced)
	}
	b.set("bench.trace_overhead_pct", 100*ratio(median(traced.us)-median(plain.us), median(plain.us)))

	scan, err := linearscan.New(base)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for qi := 0; qi < b.sc.scanQueries; qi++ {
		if _, err := scan.Search(queries[qi], k); err != nil {
			return err
		}
	}
	scanUS := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(b.sc.scanQueries)
	b.set("linearscan.search_us", scanUS)
	b.set("bench.speedup_vs_scan", ratio(scanUS, mean(lat.us)))
	b.note("speedup vs linear scan %.2fx at recall@10 %.4f (scan is exact)", ratio(scanUS, mean(lat.us)), b.values["recall_at_10"])

	if spec.microSite {
		return b.runMicro(base, queries)
	}
	return nil
}
