package server

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/hd-index/hdindex/internal/telemetry"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (version 0.0.4), hand-written: the repo takes no dependency on
// a client library, and the format is a few framing rules — # HELP and
// # TYPE per family, one sample per line, histograms as cumulative
// le-labelled buckets closed by +Inf plus _sum and _count.
//
// Latency histograms are exposed in seconds (the Prometheus base unit)
// at the native log-bucket boundaries, emitting only non-empty buckets:
// boundaries are data-dependent but always strictly increasing, which
// every histogram consumer (histogram_quantile included) accepts.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	endpoints := s.endpointsInOrder()

	// Per-endpoint request/error counters and latency histograms.
	writeHeader(bw, "hdindex_http_requests_total", "counter",
		"Requests handled, by endpoint.")
	snaps := make([]telemetry.Snapshot, len(endpoints))
	for i, ep := range endpoints {
		snaps[i] = ep.m.hist.Snapshot()
		fmt.Fprintf(bw, "hdindex_http_requests_total{endpoint=%q} %d\n", ep.name, snaps[i].Count)
	}
	writeHeader(bw, "hdindex_http_request_errors_total", "counter",
		"Requests that returned an error, by endpoint.")
	for _, ep := range endpoints {
		fmt.Fprintf(bw, "hdindex_http_request_errors_total{endpoint=%q} %d\n", ep.name, ep.m.errors.Load())
	}
	writeHeader(bw, "hdindex_http_request_duration_seconds", "histogram",
		"Request wall time, by endpoint.")
	for i, ep := range endpoints {
		writeHistogram(bw, "hdindex_http_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", ep.name), snaps[i])
	}

	// Index operation histograms (queries per shard-level operation,
	// inserts, compactions, WAL fsyncs) and the per-phase breakdown.
	tel := s.idx.Telemetry()
	writeHeader(bw, "hdindex_op_duration_seconds", "histogram",
		"Index operation wall time, by operation.")
	for _, op := range []struct {
		name string
		snap telemetry.Snapshot
	}{
		{"query", tel.Query},
		{"insert", tel.Insert},
		{"compaction", tel.Compaction},
		{"wal_sync", tel.WALSync},
	} {
		writeHistogram(bw, "hdindex_op_duration_seconds", fmt.Sprintf("op=%q", op.name), op.snap)
	}
	writeHeader(bw, "hdindex_query_phase_duration_seconds", "histogram",
		"Per-query pipeline phase wall time, by phase.")
	for i := range tel.Phase {
		writeHistogram(bw, "hdindex_query_phase_duration_seconds",
			fmt.Sprintf("phase=%q", telemetry.Phase(i)), tel.Phase[i])
	}

	// Buffer pool, WAL/memtable/compaction, and index gauges, all from
	// one snapshot of the index.
	info := s.idx.Info()
	io, ist := info.IO, info.WAL
	writeHeader(bw, "hdindex_pool_reads_total", "counter", "Buffer-pool page reads.")
	fmt.Fprintf(bw, "hdindex_pool_reads_total %d\n", io.Reads)
	writeHeader(bw, "hdindex_pool_writes_total", "counter", "Buffer-pool page writes.")
	fmt.Fprintf(bw, "hdindex_pool_writes_total %d\n", io.Writes)
	writeHeader(bw, "hdindex_pool_hits_total", "counter", "Buffer-pool page hits.")
	fmt.Fprintf(bw, "hdindex_pool_hits_total %d\n", io.Hits)
	writeHeader(bw, "hdindex_pool_misses_total", "counter", "Buffer-pool page misses.")
	fmt.Fprintf(bw, "hdindex_pool_misses_total %d\n", io.Misses)

	writeHeader(bw, "hdindex_memtable_vectors", "gauge",
		"Acknowledged inserts not yet compacted into the trees.")
	fmt.Fprintf(bw, "hdindex_memtable_vectors %d\n", ist.MemtableVectors)
	writeHeader(bw, "hdindex_wal_bytes", "gauge", "Current write-ahead-log file size.")
	fmt.Fprintf(bw, "hdindex_wal_bytes %d\n", ist.WALBytes)
	writeHeader(bw, "hdindex_wal_records", "gauge", "Records in the write-ahead log.")
	fmt.Fprintf(bw, "hdindex_wal_records %d\n", ist.WALRecords)
	writeHeader(bw, "hdindex_wal_syncs_total", "counter", "WAL fsyncs since open.")
	fmt.Fprintf(bw, "hdindex_wal_syncs_total %d\n", ist.WALSyncs)
	writeHeader(bw, "hdindex_wal_replayed_records", "gauge",
		"WAL records replayed at open (>0 means crash recovery).")
	fmt.Fprintf(bw, "hdindex_wal_replayed_records %d\n", ist.Replayed)
	writeHeader(bw, "hdindex_compactions_total", "counter",
		"Completed memtable compactions since open.")
	fmt.Fprintf(bw, "hdindex_compactions_total %d\n", ist.Compactions)

	// Failure containment: the WAL poison flag, compaction failures, and
	// the compaction circuit breaker (1 = open: retries backing off, old
	// tree generation still serving).
	writeHeader(bw, "hdindex_wal_failed", "gauge",
		"1 when the write-ahead log failed and the index is read-only.")
	fmt.Fprintf(bw, "hdindex_wal_failed %d\n", boolGauge(ist.WALFailed))
	writeHeader(bw, "hdindex_compact_failures_total", "counter",
		"Compaction attempts that failed since open.")
	fmt.Fprintf(bw, "hdindex_compact_failures_total %d\n", ist.CompactFailures)
	writeHeader(bw, "hdindex_compact_breaker_open", "gauge",
		"1 while the compaction circuit breaker is open.")
	fmt.Fprintf(bw, "hdindex_compact_breaker_open %d\n", boolGauge(ist.CompactBreaker == "open"))

	// Admission control: zero-valued when the overload layer is off, so
	// dashboards keep a stable shape either way.
	adm := s.adm.Stats()
	writeHeader(bw, "hdindex_admission_accepted_total", "counter",
		"Requests admitted past the overload controller.")
	fmt.Fprintf(bw, "hdindex_admission_accepted_total %d\n", adm.Accepted)
	writeHeader(bw, "hdindex_admission_shed_total", "counter",
		"Requests shed before doing work, by reason.")
	fmt.Fprintf(bw, "hdindex_admission_shed_total{reason=\"overload\"} %d\n", adm.ShedOverload)
	fmt.Fprintf(bw, "hdindex_admission_shed_total{reason=\"tenant\"} %d\n", adm.ShedTenant)
	fmt.Fprintf(bw, "hdindex_admission_shed_total{reason=\"deadline\"} %d\n", adm.ShedDeadline)
	writeHeader(bw, "hdindex_admission_inflight", "gauge",
		"Admitted requests currently executing (weighted).")
	fmt.Fprintf(bw, "hdindex_admission_inflight %d\n", adm.Inflight)
	writeHeader(bw, "hdindex_admission_queued", "gauge",
		"Requests waiting in the admission queue.")
	fmt.Fprintf(bw, "hdindex_admission_queued %d\n", adm.Queued)
	writeHeader(bw, "hdindex_admission_pressure", "gauge",
		"Load-pressure signal (expected queue wait, seconds).")
	fmt.Fprintf(bw, "hdindex_admission_pressure %s\n", formatFloat(adm.Pressure))
	writeHeader(bw, "hdindex_admission_degraded", "gauge",
		"1 while new unpinned queries run the degraded cascade.")
	fmt.Fprintf(bw, "hdindex_admission_degraded %d\n", boolGauge(adm.Degraded))

	// Per-tenant admission: the top tenants by accepted count plus one
	// aggregate "other" row, so the label cardinality stays bounded
	// however many tenant ids clients invent. Absent entirely when no
	// per-tenant mechanism is configured.
	if len(adm.Tenants) > 0 {
		writeHeader(bw, "hdindex_tenant_accepted_total", "counter",
			"Requests admitted, by tenant (top tenants plus \"other\").")
		for _, t := range adm.Tenants {
			fmt.Fprintf(bw, "hdindex_tenant_accepted_total{tenant=%q} %d\n", t.Tenant, t.Accepted)
		}
		writeHeader(bw, "hdindex_tenant_shed_total", "counter",
			"Requests shed, by tenant and reason.")
		for _, t := range adm.Tenants {
			fmt.Fprintf(bw, "hdindex_tenant_shed_total{tenant=%q,reason=\"overload\"} %d\n", t.Tenant, t.ShedOverload)
			fmt.Fprintf(bw, "hdindex_tenant_shed_total{tenant=%q,reason=\"tenant\"} %d\n", t.Tenant, t.ShedTenant)
		}
		writeHeader(bw, "hdindex_tenant_load", "gauge",
			"In-flight plus queued weight, by tenant.")
		for _, t := range adm.Tenants {
			fmt.Fprintf(bw, "hdindex_tenant_load{tenant=%q} %d\n", t.Tenant, t.Load)
		}
	}

	// SLO auto-tuner: the operating point it holds and whether the
	// target is currently infeasible on the measured frontier.
	if s.tuner != nil {
		st := s.tuner.Stats()
		writeHeader(bw, "hdindex_slo_alpha", "gauge",
			"Cascade alpha of the tuner's current operating point.")
		fmt.Fprintf(bw, "hdindex_slo_alpha %d\n", st.Choice.Alpha)
		writeHeader(bw, "hdindex_slo_gamma", "gauge",
			"Cascade gamma of the tuner's current operating point.")
		fmt.Fprintf(bw, "hdindex_slo_gamma %d\n", st.Choice.Gamma)
		writeHeader(bw, "hdindex_slo_unmet", "gauge",
			"1 while no frontier point satisfies the SLO target.")
		fmt.Fprintf(bw, "hdindex_slo_unmet %d\n", boolGauge(st.Choice.SLOUnmet))
		writeHeader(bw, "hdindex_slo_frontier_points", "gauge",
			"Operating points on the tuner's current frontier.")
		fmt.Fprintf(bw, "hdindex_slo_frontier_points %d\n", st.FrontierSize)
		writeHeader(bw, "hdindex_slo_decisions_total", "counter",
			"Tuner decisions taken (history length, bounded).")
		fmt.Fprintf(bw, "hdindex_slo_decisions_total %d\n", len(st.History))
		writeHeader(bw, "hdindex_slo_remeasure_passes_total", "counter",
			"Live frontier re-measurement passes completed.")
		fmt.Fprintf(bw, "hdindex_slo_remeasure_passes_total %d\n", st.Remeasures)
		writeHeader(bw, "hdindex_slo_sampled_queries_total", "counter",
			"Real queries offered to the tuner's replay sample.")
		fmt.Fprintf(bw, "hdindex_slo_sampled_queries_total %d\n", st.SampledN)
	}

	writeHeader(bw, "hdindex_index_vectors", "gauge", "Indexed vectors.")
	fmt.Fprintf(bw, "hdindex_index_vectors %d\n", info.Count)
	writeHeader(bw, "hdindex_index_deleted", "gauge", "Deletion marks.")
	fmt.Fprintf(bw, "hdindex_index_deleted %d\n", info.Deleted)
	writeHeader(bw, "hdindex_index_shards", "gauge", "Shards in the on-disk layout.")
	fmt.Fprintf(bw, "hdindex_index_shards %d\n", info.NumShards)
	writeHeader(bw, "hdindex_index_size_bytes", "gauge", "Total index file bytes on disk.")
	fmt.Fprintf(bw, "hdindex_index_size_bytes %d\n", info.SizeOnDisk)
	writeHeader(bw, "hdindex_uptime_seconds", "gauge", "Seconds since the server started.")
	fmt.Fprintf(bw, "hdindex_uptime_seconds %s\n", formatFloat(time.Since(s.started).Seconds()))

	s.mMetrics.observe(time.Since(start), false)
}

// endpointRow pairs an endpoint's stable exposition label with its
// metrics.
type endpointRow struct {
	name string
	m    *endpointMetrics
}

// endpointsInOrder returns the endpoints in a fixed order so the
// exposition is deterministic scrape to scrape.
func (s *Server) endpointsInOrder() []endpointRow {
	return []endpointRow{
		{"search", &s.mSearch},
		{"searchbatch", &s.mBatch},
		{"insert", &s.mInsert},
		{"delete", &s.mDelete},
		{"stats", &s.mStats},
		{"healthz", &s.mHealth},
		{"metrics", &s.mMetrics},
	}
}

func writeHeader(bw *bufio.Writer, name, typ, help string) {
	fmt.Fprintf(bw, "# HELP %s %s\n", name, help)
	fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
}

// writeHistogram renders one snapshot as a cumulative le-bucketed
// Prometheus histogram in seconds. labels is the pre-rendered label
// pair (`endpoint="search"`) or empty.
func writeHistogram(bw *bufio.Writer, name, labels string, s telemetry.Snapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	s.ForEachBucket(func(upper, count uint64) {
		cum += count
		fmt.Fprintf(bw, "%s_bucket{%s%sle=%q} %d\n",
			name, labels, sep, formatFloat(float64(upper)/1e9), cum)
	})
	fmt.Fprintf(bw, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(bw, "%s_sum%s %s\n", name, labels, formatFloat(float64(s.Sum)/1e9))
	fmt.Fprintf(bw, "%s_count%s %d\n", name, labels, s.Count)
}

// formatFloat renders a float the shortest way that round-trips, the
// conventional Prometheus float formatting.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
