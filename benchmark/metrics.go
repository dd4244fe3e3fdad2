package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
)

// metricDef is one row of BENCHMARK.json. The tables below are what the
// driver emits and what -compare judges with; bench_test.go keeps
// BENCHMARK.json equal to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only, never 0 there
}

// endToEnd is what a user of the index sees. Every workload reports
// every row. A bound is a share of the parent's median and has to cover
// the spread across ten seeds on the reference container, whose CPU
// speed alone moves timings by 10-15 % between runs (README.md, "Bounds
// and measured spreads"): the timing bounds sit at the contract's
// maximum, the count bounds at three times the measured spread.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_p95_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"recall_at_10", "ratio", "higher", 0.10},
	{"map_at_10", "ratio", "higher", 0.10},
	{"page_reads_per_query", "count", "lower", 0.10},
	{"index_bytes_per_vector", "bytes", "lower", 0.01},
}

var phaseNames = [5]string{"tree_walk", "candidate_sort", "refine", "memtable_scan", "topk_merge"}

// perLayer metrics come from the traced run. A workload that does not
// exercise a layer prints 0 for it (README.md says which workload
// measures what).
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, p := range phaseNames {
		add("us", "lower", "core."+p+"_us")
	}
	for _, p := range phaseNames {
		add("ratio", "lower", "core."+p+"_share")
	}
	add("count", "lower", "core.tree_entries", "core.candidates", "core.exact_distances", "core.memtable_scanned")
	add("ratio", "higher", "core.filter_keep_ratio", "core.refine_useful_ratio")
	add("1/s", "higher", "core.batch_qps")
	add("count", "lower", "core.allocs_per_query")
	add("bytes", "lower", "core.alloc_bytes_per_query")
	add("count", "higher", "pager.hits")
	add("count", "lower", "pager.misses")
	add("ratio", "higher", "pager.hit_ratio")
	add("ratio", "lower", "core.page_reads_model_ratio")
	add("ms", "lower", "core.build_refdists_ms", "core.build_encode_ms", "core.build_sort_ms", "core.build_bulkload_ms", "core.open_ms")
	// mixed-ingest
	add("count", "lower", "core.compactions")
	add("ms", "lower", "core.compaction_ms_total")
	add("ratio", "lower", "wal.syncs_per_insert")
	add("bytes", "lower", "wal.bytes_per_insert")
	add("ms", "lower", "core.reopen_ms")
	add("us", "lower", "core.query_p99_in_compaction_us", "core.query_p99_quiet_us", "core.insert_p50_us", "core.insert_p99_us", "shard.scatter_overhead_us")
	// cluster-serve
	add("us", "lower", "server.http_overhead_us", "cluster.hop_overhead_us")
	add("count", "lower", "cluster.retries", "cluster.failovers", "cluster.hedges_fired", "server.non200")
	// the brute-force floor and the harness itself
	add("us", "lower", "linearscan.search_us")
	add("ratio", "higher", "bench.speedup_vs_scan")
	add("%", "lower", "bench.trace_overhead_pct")
	add("s", "lower", "bench.harness_prep_s")
	add("ratio", "higher", "bench.phase_span_ratio")
	// layer micro-suite (traced warm-wide)
	add("ns", "lower", "pager.view_hit_ns", "pager.get_hit_ns", "pager.get_miss_ns",
		"bptree.seek_ns", "bptree.next_ns", "rdbtree.search_ns_per_entry")
	add("count", "lower", "rdbtree.pages_per_search")
	add("ns", "lower", "hilbert.encode_ns", "hilbert.keydelta_ns", "topk.selectk_ns", "topk.push_ns",
		"vecmath.dist_ns", "vecmath.distsqbound_ns", "vecstore.getview_hit_ns", "vecstore.get_miss_ns")
	add("us", "lower", "wal.append_sync_us")
	add("ns", "lower", "wal.append_nosync_ns", "radix.sort_ns_per_key")
	return defs
}()

// workloadDef is one row of BENCHMARK.json's workloads.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"warm-wide", "paper default cascade (alpha 4096, gamma 1024) with every file inside its pool: tree walk and filter are ~80 % of the time, so a tree-walk gain must show here and an I/O gain must not"},
	{"cold-refine", "alpha = gamma = 512 through the facade's 1 MiB pools against a 51 MB vector file: ~2500 page reads per query, refinement dominates, the opposite split to warm-wide"},
	{"mixed-ingest", "two shards, 70 % queries beside 28 % WAL-synced inserts and 2 % deletes with background compactions, so a read gain paid for by insert, compaction, space or reopen cost shows"},
	{"cluster-serve", "two shard servers behind the coordinator over loopback HTTP: the only path through JSON, admission, scatter/merge and two hops, where the engine's share is smallest"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{ // plain data: Encode cannot fail
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": refSeconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	})
	return buf.Bytes()
}

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
