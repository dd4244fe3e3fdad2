package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/rdbtree"
)

const (
	k         = 10
	pageSize  = 4096
	tau       = 8
	omega     = 8
	refs      = 10
	builtA    = 4096
	builtG    = 1024
	numBuilds = 3
)

// scale sizes a run. full is the benchmark; tiny is the in-process
// smoke test's few-second version of the same code paths.
type scale struct {
	n, queries    int
	memtable      int // MemtableMaxVectors on mixed-ingest
	warmPool      int // pool pages per file on warm-wide
	mixedOps      int
	clusterReqs   int // per client
	verifyQueries int // cluster-serve's identical-answer and per-hop sample
	scanQueries   int // linearscan floor
	microDiv      int // divides the micro-suite's iteration counts
	// sequential passes over the query set per reference run length
	warmSeq, coldSeq float64
}

var scales = map[string]scale{
	"full": {n: 100_000, queries: 500, memtable: 256, warmPool: 16384, mixedOps: 5000, clusterReqs: 1000,
		verifyQueries: 200, scanQueries: 100, microDiv: 1, warmSeq: 2, coldSeq: 3},
	"tiny": {n: 2000, queries: 40, memtable: 16, warmPool: 16384, mixedOps: 400, clusterReqs: 60,
		verifyQueries: 20, scanQueries: 10, microDiv: 100, warmSeq: 2, coldSeq: 2},
}

// refSeconds is BENCHMARK.json's run_seconds: the pass and request
// counts above are sized so the measured phase takes about this long on
// the 2-core reference container, and --seconds scales them linearly.
// Counts, not a stopwatch, end a run, so work counts repeat exactly.
const refSeconds = 14

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    string
	workDir  string
}

// bench is one run of one workload.
type bench struct {
	cfg  config
	sc   scale
	tr   *tracer // nil when untraced
	dir  string  // scratch directory, removed at exit
	prep time.Duration

	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string

	values map[string]float64
	notes  []string
}

func newBench(cfg config) (*bench, error) {
	sc, ok := scales[cfg.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", cfg.scale)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, sc: sc, dir: dir, values: map[string]float64{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.dir) }

// scaled turns a per-reference-run count into this run's count.
func (b *bench) scaled(perRef float64) int {
	return max(1, int(math.Round(perRef*float64(b.cfg.seconds)/refSeconds)))
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation; a non-empty reason marks it failed.
func (b *bench) op(reason string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if reason != "" {
		b.failed++
		if len(b.reasons) < 10 {
			b.reasons = append(b.reasons, reason)
		}
	}
}

// rng derives an independent stream per purpose from the run seed, so
// adding a consumer never shifts another's inputs.
func (b *bench) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(b.cfg.seed*1_000_003 + purpose))
}

const (
	rngData = iota + 1
	rngQueries
	rngOps
	rngMicro
)

func nproc() int { return runtime.GOMAXPROCS(0) }

func buildOptions(shards, memtable int) hdindex.Options {
	return hdindex.Options{
		Tau: tau, Omega: omega, M: refs, Alpha: builtA, Beta: builtA, Gamma: builtG,
		Seed: 1, Shards: shards, MemtableMaxVectors: memtable,
	}
}

// buildIndex is the Build part of set-up: numBuilds builds into fresh
// directories, the last one kept. It returns the kept directory and the
// median build time, and (traced) reports the median phase costs.
func (b *bench) buildIndex(base [][]float32, opts hdindex.Options) (string, time.Duration, error) {
	var times []float64
	var phases [4][]float64
	var dir string
	for i := 0; i < numBuilds; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(b.dir, fmt.Sprintf("index-%d", i))
		t0 := time.Now()
		idx, err := hdindex.Build(dir, base, opts)
		d := time.Since(t0)
		if err != nil {
			return "", 0, fmt.Errorf("build: %w", err)
		}
		b.tr.add("hdindex.Build", -1, int64(i), t0, d, nil)
		times = append(times, d.Seconds())
		if st := idx.BuildStats(); st != nil {
			for j, v := range []float64{st.RefDistsMS, st.EncodeMS, st.SortMS, st.BulkLoadMS} {
				phases[j] = append(phases[j], v)
			}
		}
		if err := idx.Close(); err != nil {
			return "", 0, fmt.Errorf("close after build: %w", err)
		}
	}
	if b.tr != nil {
		for j, name := range []string{"refdists", "encode", "sort", "bulkload"} {
			b.set("core.build_"+name+"_ms", median(phases[j]))
		}
	}
	return dir, time.Duration(median(times) * float64(time.Second)), nil
}

// toNeighbours converts a result list to the driver's own type.
func toNeighbours(res []hdindex.Result) []neighbour {
	out := make([]neighbour, len(res))
	for i, r := range res {
		out[i] = neighbour{id: r.ID, dist: r.Dist}
	}
	return out
}

// badResult says why a result list is wrong, or "" when it is fine: k
// results, distances in order, every id assigned and not deleted.
func badResult(res []neighbour, limit uint64, deleted map[uint64]bool) string {
	if len(res) != k {
		return fmt.Sprintf("%d results, want %d", len(res), k)
	}
	for i, r := range res {
		switch {
		case i > 0 && r.dist < res[i-1].dist:
			return fmt.Sprintf("distances out of order at rank %d", i)
		case r.id >= limit:
			return fmt.Sprintf("id %d out of range (%d assigned)", r.id, limit)
		case deleted[r.id]:
			return fmt.Sprintf("deleted id %d returned", r.id)
		}
	}
	return ""
}

func sameResults(a, b []neighbour) bool { return slices.Equal(a, b) }

// scorer accumulates recall@k and MAP@k over queries.
type scorer struct {
	n          int
	recall, ap float64
}

func (s *scorer) add(got, truth []neighbour) {
	r, ap := recallAndAP(got, truth, k)
	s.n++
	s.recall += r
	s.ap += ap
}

func (s *scorer) emit(b *bench) {
	b.set("recall_at_10", ratio(s.recall, float64(s.n)))
	b.set("map_at_10", ratio(s.ap, float64(s.n)))
}

// windows is how many equal, consecutive slices of a measured loop each
// end-to-end timing is computed over. The reported value is the median
// slice's, so a burst of interference from the host that covers less
// than half a run does not set it.
const windows = 5

// timings records the timed operations of one closed loop: how long each
// took (microseconds) and when it completed.
type timings struct {
	us   []float64
	ends []time.Time
}

func (t *timings) add(t0 time.Time, d time.Duration) {
	t.us = append(t.us, float64(d.Nanoseconds())/1e3)
	t.ends = append(t.ends, t0.Add(d))
}

// byWindow returns the indices of the operations in completion order,
// cut into windows slices.
func (t *timings) byWindow() [][]int {
	order := make([]int, len(t.ends))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return t.ends[order[i]].Before(t.ends[order[j]]) })
	var out [][]int
	for w := 0; w < windows; w++ {
		if lo, hi := w*len(order)/windows, (w+1)*len(order)/windows; hi > lo {
			out = append(out, order[lo:hi])
		}
	}
	return out
}

// emit reports the search latency percentiles: each is taken per window,
// and the median window's is the metric.
func (t *timings) emit(b *bench) {
	var p50, p95 []float64
	for _, w := range t.byWindow() {
		us := make([]float64, len(w))
		for i, idx := range w {
			us[i] = t.us[idx]
		}
		slices.Sort(us)
		p50 = append(p50, percentile(us, 0.50))
		p95 = append(p95, percentile(us, 0.95))
	}
	b.set("query_p50_us", median(p50))
	b.set("query_p95_us", median(p95))
	all := sortedCopy(t.us)
	b.note("query latency: %d samples in %d windows; over all samples p50 %.0f us, p95 %.0f us, p99 %.0f us, mean %.0f us",
		len(all), len(p50), percentile(all, 0.50), percentile(all, 0.95), percentile(all, 0.99), mean(all))
}

// rate returns operations completed per second, as the median over the
// windows of a loop that began at start.
func (t *timings) rate(start time.Time) float64 {
	var rates []float64
	for _, w := range t.byWindow() {
		end := t.ends[w[len(w)-1]]
		rates = append(rates, float64(len(w))/end.Sub(start).Seconds())
		start = end
	}
	return median(rates)
}

// layerSums adds up what the program reported about each traced search;
// emit turns the sums into the per-search core.* and pager.* metrics.
type layerSums struct {
	n          int
	phaseNS    [len(phaseNames)]float64
	spanNS     float64 // the driver's own span around the same searches
	entries    float64
	candidates float64
	exact      float64
	memtable   float64
	hits       float64
	misses     float64
	reads      float64
}

func (s *layerSums) add(st *hdindex.Stats, d time.Duration) map[string]float64 {
	if st == nil {
		return nil
	}
	s.n++
	s.spanNS += float64(d.Nanoseconds())
	attrs := make(map[string]float64, len(phaseNames)+3)
	for i, ns := range st.Phases {
		s.phaseNS[i] += float64(ns)
		attrs[phaseNames[i]+"_ns"] = float64(ns)
	}
	s.entries += float64(st.TreeEntries)
	s.candidates += float64(st.Candidates)
	s.exact += float64(st.ExactDistances)
	s.memtable += float64(st.MemtableScanned)
	s.hits += float64(st.PageHits)
	s.misses += float64(st.PageMisses)
	s.reads += float64(st.PageReads)
	attrs["tree_entries"] = float64(st.TreeEntries)
	attrs["candidates"] = float64(st.Candidates)
	attrs["page_reads"] = float64(st.PageReads)
	return attrs
}

// emit reports the means. alpha and shards feed the external-memory
// model: a query should read about tau*ceil(alpha/leafOrder) leaf pages
// per shard plus one vector page per candidate.
func (s *layerSums) emit(b *bench, alpha, shards int) {
	n := float64(s.n)
	var total float64
	for _, ns := range s.phaseNS {
		total += ns
	}
	for i, p := range phaseNames {
		b.set("core."+p+"_us", ratio(s.phaseNS[i], n)/1e3)
		b.set("core."+p+"_share", ratio(s.phaseNS[i], total))
	}
	b.set("core.tree_entries", ratio(s.entries, n))
	b.set("core.candidates", ratio(s.candidates, n))
	b.set("core.exact_distances", ratio(s.exact, n))
	b.set("core.memtable_scanned", ratio(s.memtable, n))
	b.set("core.filter_keep_ratio", ratio(s.candidates, s.entries))
	b.set("core.refine_useful_ratio", ratio(k*n, s.exact))
	b.set("pager.hits", ratio(s.hits, n))
	b.set("pager.misses", ratio(s.misses, n))
	b.set("pager.hit_ratio", ratio(s.hits, s.hits+s.misses))
	leafOrder := rdbtree.LeafOrder(pageSize, dim/tau, omega, refs)
	model := float64(shards*tau*((alpha+leafOrder-1)/leafOrder)) + ratio(s.candidates, n)
	b.set("core.page_reads_model_ratio", ratio(ratio(s.reads, n), model))

	// Trace self-check: the program's five phases should account for
	// the driver's span around the same calls. On the two-shard and HTTP
	// workloads the phases sum work across shards, so only the
	// single-index workloads are held to the 10 % band.
	r := ratio(total, s.spanNS)
	b.set("bench.phase_span_ratio", r)
	verdict := "ok"
	if shards == 1 && math.Abs(r-1) > 0.10 {
		verdict = "MISMATCH (outside 10 %)"
	}
	b.note("trace-check: core phases sum to %.1f %% of the driver's search spans over %d searches: %s", 100*r, s.n, verdict)
}

// memDelta measures process-wide heap allocation across fn.
func memDelta(fn func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}
