package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/api"
)

// TestMetricsExposition drives real traffic through every endpoint,
// scrapes GET /metrics, and runs the exposition through the
// promlint-style checker: the output must parse cleanly and the
// families the dashboards depend on must be present with live counts.
func TestMetricsExposition(t *testing.T) {
	ts, idx, ds := newTestServer(t, Config{QueryTimeout: 10 * time.Second})
	queries := ds.PerturbedQueries(4, 0.02, 11)
	dim := idx.Dim()

	post := func(path string, body any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, b)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
	}

	for _, q := range queries {
		post("/search", api.SearchRequest{Query: q, K: 10})
	}
	post("/searchbatch", api.SearchBatchRequest{Queries: [][]float32{queries[0], queries[1]}, K: 5})
	vec := make([]float32, dim)
	for d := range vec {
		vec[d] = 0.25
	}
	post("/insert", insertRequest{Vector: vec})
	if _, err := http.Get(ts.URL + "/stats"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	fams := parsePromText(t, string(body))

	// Required families with live traffic behind them.
	if v, ok := fams.sampleValue("hdindex_http_requests_total", map[string]string{"endpoint": "search"}); !ok || v < float64(len(queries)) {
		t.Errorf("search requests_total = %v (ok=%v), want >= %d", v, ok, len(queries))
	}
	if v, ok := fams.sampleValue("hdindex_http_request_duration_seconds_count", map[string]string{"endpoint": "search"}); !ok || v < float64(len(queries)) {
		t.Errorf("search duration count = %v (ok=%v), want >= %d", v, ok, len(queries))
	}
	if v, ok := fams.sampleValue("hdindex_op_duration_seconds_count", map[string]string{"op": "query"}); !ok || v == 0 {
		t.Errorf("op=query count = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := fams.sampleValue("hdindex_op_duration_seconds_count", map[string]string{"op": "insert"}); !ok || v == 0 {
		t.Errorf("op=insert count = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := fams.sampleValue("hdindex_query_phase_duration_seconds_count", map[string]string{"phase": "tree_walk"}); !ok || v == 0 {
		t.Errorf("phase=tree_walk count = %v (ok=%v), want > 0", v, ok)
	}
	for _, name := range []string{
		"hdindex_pool_reads_total",
		"hdindex_memtable_vectors",
		"hdindex_wal_records",
		"hdindex_wal_syncs_total",
		"hdindex_index_vectors",
		"hdindex_index_shards",
		"hdindex_index_size_bytes",
		"hdindex_uptime_seconds",
	} {
		if _, ok := fams.sampleValue(name, nil); !ok {
			t.Errorf("missing sample %s", name)
		}
	}

	// One insert happened, so the memtable must be non-empty.
	if v, ok := fams.sampleValue("hdindex_memtable_vectors", nil); !ok || v < 1 {
		t.Errorf("memtable_vectors = %v (ok=%v), want >= 1", v, ok)
	}
	if v, ok := fams.sampleValue("hdindex_index_vectors", nil); !ok || v == 0 {
		t.Errorf("index_vectors = %v (ok=%v), want > 0", v, ok)
	}
}
