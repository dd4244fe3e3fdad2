package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/api"
	"github.com/hd-index/hdindex/internal/data"
)

// newTestServer builds a small index and mounts a Server over it.
func newTestServer(t testing.TB, cfg Config) (*httptest.Server, *hdindex.Index, *data.Dataset) {
	t.Helper()
	ds := data.Generate(data.Config{Name: "t", N: 1500, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 42})
	idx, err := hdindex.Build(t.TempDir(), ds.Vectors, hdindex.Options{
		Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	ts := httptest.NewServer(New(idx, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts, idx, ds
}

// post sends a JSON body and decodes a JSON response.
func post(t testing.TB, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestSearchEndpointMatchesDirect(t *testing.T) {
	ts, idx, ds := newTestServer(t, Config{})
	queries := ds.PerturbedQueries(5, 0.02, 2)
	for _, q := range queries {
		resp, err := idx.Query(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		want := resp.Results
		var got api.SearchResponse
		if code := post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 10}, &got); code != 200 {
			t.Fatalf("status %d", code)
		}
		if len(got.Results) != len(want) {
			t.Fatalf("%d results, want %d", len(got.Results), len(want))
		}
		for i := range want {
			if got.Results[i].ID != want[i].ID {
				t.Fatalf("rank %d: id %d, want %d", i, got.Results[i].ID, want[i].ID)
			}
		}
	}
}

func TestSearchEndpointStats(t *testing.T) {
	ts, _, ds := newTestServer(t, Config{})
	q := ds.PerturbedQueries(1, 0.02, 3)[0]
	var got api.SearchResponse
	if code := post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 5, Stats: true}, &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if got.Stats == nil || got.Stats.Candidates == 0 {
		t.Fatalf("stats missing or empty: %+v", got.Stats)
	}
}

func TestSearchBatchEndpoint(t *testing.T) {
	ts, idx, ds := newTestServer(t, Config{})
	queries := ds.PerturbedQueries(12, 0.02, 4)
	var got api.SearchBatchResponse
	if code := post(t, ts.URL+"/searchbatch", api.SearchBatchRequest{Queries: queries, K: 5}, &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(got.Results) != len(queries) {
		t.Fatalf("%d result sets, want %d", len(got.Results), len(queries))
	}
	// Order must match per-query searches.
	for qi, q := range queries {
		resp, err := idx.Query(context.Background(), q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := resp.Results
		for i := range want {
			if got.Results[qi][i].ID != want[i].ID {
				t.Fatalf("query %d rank %d: id %d, want %d", qi, i, got.Results[qi][i].ID, want[i].ID)
			}
		}
	}
}

func TestRequestValidation(t *testing.T) {
	ts, idx, ds := newTestServer(t, Config{MaxK: 50, MaxBatch: 4})
	q := ds.PerturbedQueries(1, 0.02, 5)[0]
	cases := []struct {
		name string
		url  string
		body any
	}{
		{"empty query", "/search", api.SearchRequest{K: 5}},
		{"wrong dims", "/search", api.SearchRequest{Query: q[:7], K: 5}},
		{"k=0", "/search", api.SearchRequest{Query: q, K: 0}},
		{"k over cap", "/search", api.SearchRequest{Query: q, K: 51}},
		{"empty batch", "/searchbatch", api.SearchBatchRequest{K: 5}},
		{"oversized batch", "/searchbatch", api.SearchBatchRequest{Queries: [][]float32{q, q, q, q, q}, K: 5}},
		{"bad batch query", "/searchbatch", api.SearchBatchRequest{Queries: [][]float32{q[:3]}, K: 5}},
		{"empty insert", "/insert", insertRequest{}},
		{"unknown delete id", "/delete", deleteRequest{ID: idx.Count() + 10}},
		{"unknown field", "/search", map[string]any{"query": q, "k": 5, "bogus": 1}},
	}
	for _, c := range cases {
		var errResp map[string]string
		if code := post(t, ts.URL+c.url, c.body, &errResp); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (resp %v)", c.name, code, errResp)
		} else if errResp["error"] == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}
	// Trailing garbage after a valid object.
	resp0, err := http.Post(ts.URL+"/search", "application/json",
		bytes.NewReader([]byte(`{"query":[1],"k":5}{"k":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing data: status %d", resp0.StatusCode)
	}
	// Malformed JSON entirely.
	resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search: status %d, want 405", resp.StatusCode)
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	ts, idx, _ := newTestServer(t, Config{})
	novel := make([]float32, idx.Dim())
	for d := range novel {
		novel[d] = 0.97
	}
	var ins map[string]uint64
	if code := post(t, ts.URL+"/insert", insertRequest{Vector: novel}, &ins); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	id := ins["id"]

	var sr api.SearchResponse
	if code := post(t, ts.URL+"/search", api.SearchRequest{Query: novel, K: 1}, &sr); code != 200 {
		t.Fatalf("search status %d", code)
	}
	if len(sr.Results) != 1 || sr.Results[0].ID != id {
		t.Fatalf("search after insert = %+v, want id %d", sr.Results, id)
	}

	if code := post(t, ts.URL+"/delete", deleteRequest{ID: id}, nil); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if code := post(t, ts.URL+"/search", api.SearchRequest{Query: novel, K: 1}, &sr); code != 200 {
		t.Fatalf("search status %d", code)
	}
	if len(sr.Results) == 1 && sr.Results[0].ID == id {
		t.Fatal("deleted vector still returned")
	}

	if code := post(t, ts.URL+"/delete", deleteRequest{ID: id, Undelete: true}, nil); code != 200 {
		t.Fatalf("undelete status %d", code)
	}
	if code := post(t, ts.URL+"/search", api.SearchRequest{Query: novel, K: 1}, &sr); code != 200 {
		t.Fatalf("search status %d", code)
	}
	if len(sr.Results) != 1 || sr.Results[0].ID != id {
		t.Fatal("undeleted vector not returned again")
	}
}

func TestReadOnlyMode(t *testing.T) {
	ts, idx, _ := newTestServer(t, Config{ReadOnly: true})
	vec := make([]float32, idx.Dim())
	if code := post(t, ts.URL+"/insert", insertRequest{Vector: vec}, nil); code != http.StatusForbidden {
		t.Errorf("insert status %d, want 403", code)
	}
	if code := post(t, ts.URL+"/delete", deleteRequest{ID: 0}, nil); code != http.StatusForbidden {
		t.Errorf("delete status %d, want 403", code)
	}
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, idx, ds := newTestServer(t, Config{})
	q := ds.PerturbedQueries(1, 0.02, 6)[0]
	const n = 7
	for i := 0; i < n; i++ {
		if code := post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 3}, nil); code != 200 {
			t.Fatalf("search status %d", code)
		}
	}
	// One failed request must show up in the error counter.
	post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 0}, nil)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Index.Count != idx.Count() || st.Index.Dim != idx.Dim() {
		t.Errorf("index stats = %+v", st.Index)
	}
	// A bare single-index layout reports itself as one shard.
	if st.Index.NumShards != 1 || len(st.Index.Shards) != 1 || st.Index.Shards[0].Count != idx.Count() {
		t.Errorf("bare layout shard stats = %+v", st.Index)
	}
	es := st.Endpoints["search"]
	if es.Requests != n+1 || es.Errors != 1 {
		t.Errorf("search endpoint stats = %+v, want %d requests / 1 error", es, n+1)
	}
	if es.MeanLatencyMs <= 0 || es.MaxLatencyMs < es.MeanLatencyMs || es.QPS <= 0 {
		t.Errorf("latency/QPS not populated: %+v", es)
	}
}

// /stats over a sharded layout reports the shard count and a per-shard
// breakdown that sums to the whole.
func TestStatsShardedLayout(t *testing.T) {
	ds := data.Generate(data.Config{Name: "sh", N: 1201, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 17})
	idx, err := hdindex.Build(t.TempDir(), ds.Vectors, hdindex.Options{
		Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 1, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	t.Cleanup(ts.Close)

	if code := post(t, ts.URL+"/delete", deleteRequest{ID: 3}, nil); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Index.NumShards != 4 || len(st.Index.Shards) != 4 {
		t.Fatalf("shard stats = %+v", st.Index)
	}
	var count uint64
	var deleted int
	var size int64
	for _, sh := range st.Index.Shards {
		count += sh.Count
		deleted += sh.Deleted
		size += sh.SizeOnDisk
	}
	if count != st.Index.Count || deleted != st.Index.Deleted || size != st.Index.SizeOnDisk {
		t.Fatalf("per-shard rows do not sum to the totals: %+v", st.Index)
	}
	if st.Index.Deleted != 1 {
		t.Fatalf("deleted = %d, want 1", st.Index.Deleted)
	}

	// Search still round-trips through the scatter-gather path.
	q := ds.PerturbedQueries(1, 0.02, 8)[0]
	var got api.SearchResponse
	if code := post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 5}, &got); code != 200 {
		t.Fatalf("search status %d", code)
	}
	if len(got.Results) != 5 {
		t.Fatalf("%d results", len(got.Results))
	}
}

// A request deadline of effectively zero must yield 504, not 200.
func TestSearchTimeoutHonoured(t *testing.T) {
	ts, _, ds := newTestServer(t, Config{QueryTimeout: time.Nanosecond})
	q := ds.PerturbedQueries(1, 0.02, 7)[0]
	var errResp map[string]string
	code := post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 5}, &errResp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (resp %v)", code, errResp)
	}
	// An absurd timeout_ms must not overflow into disabling the server
	// deadline.
	code = post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 5, TimeoutMs: math.MaxInt}, &errResp)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("overflow timeout_ms: status %d, want 504 (resp %v)", code, errResp)
	}
	// Per-request timeout_ms lowers the (here absent) server default too.
	ts2, _, _ := newTestServer(t, Config{})
	var batchErr map[string]string
	queries := ds.PerturbedQueries(64, 0.02, 8)
	code = post(t, ts2.URL+"/searchbatch", api.SearchBatchRequest{Queries: queries, K: 5, TimeoutMs: -1}, nil)
	if code != 200 {
		t.Fatalf("negative timeout_ms must be ignored, got %d (%v)", code, batchErr)
	}
}

func TestEndpointMetricsMaxTracksLargest(t *testing.T) {
	var m endpointMetrics
	started := time.Now().Add(-time.Second)
	m.observe(2*time.Millisecond, false)
	m.observe(5*time.Millisecond, true)
	m.observe(1*time.Millisecond, false)
	s := m.statsRow(started, started.Add(time.Second))
	if s.Requests != 3 || s.Errors != 1 {
		t.Fatalf("statsRow = %+v", s)
	}
	if s.MaxLatencyMs < 4.9 || s.MaxLatencyMs > 5.1 {
		t.Fatalf("max latency = %v, want ~5ms", s.MaxLatencyMs)
	}
	if want := 3.0; s.QPS != want {
		t.Fatalf("qps = %v, want %v", s.QPS, want)
	}
	// The histogram-backed quantiles must bracket the observations:
	// p50 near 2ms, p99 near the 5ms tail, all within the mean/max.
	if s.P50LatencyMs < 1.5 || s.P50LatencyMs > 2.1 {
		t.Fatalf("p50 = %v, want ~2ms", s.P50LatencyMs)
	}
	if s.P99LatencyMs < 4.5 || s.P99LatencyMs > 5.1 {
		t.Fatalf("p99 = %v, want ~5ms", s.P99LatencyMs)
	}
	// The first scrape's window covers everything so far.
	if s.Window == nil || s.Window.Requests != 3 {
		t.Fatalf("first window = %+v, want 3 requests", s.Window)
	}
}

// The all-time max must survive a quiet window, while the window max
// forgets the cold-start outlier — the fix for the max-grows-forever
// problem.
func TestEndpointMetricsWindowForgetsOutlier(t *testing.T) {
	var m endpointMetrics
	started := time.Now()
	m.observe(500*time.Millisecond, false) // cold-start outlier
	first := m.statsRow(started, started.Add(time.Second))
	if first.MaxLatencyMs < 499 {
		t.Fatalf("all-time max = %v, want ~500ms", first.MaxLatencyMs)
	}
	// Steady-state traffic an order of magnitude faster.
	for i := 0; i < 100; i++ {
		m.observe(2*time.Millisecond, false)
	}
	s := m.statsRow(started, started.Add(2*time.Second))
	if s.MaxLatencyMs < 499 {
		t.Fatalf("all-time max lost the outlier: %v", s.MaxLatencyMs)
	}
	if s.Window == nil {
		t.Fatal("no window despite 100 requests")
	}
	if s.Window.Requests != 100 {
		t.Fatalf("window requests = %d, want 100", s.Window.Requests)
	}
	// Bucket-estimated window max: within 3.125% above the true 2ms.
	if s.Window.MaxLatencyMs < 2 || s.Window.MaxLatencyMs > 2.1 {
		t.Fatalf("window max = %v, want ~2ms (outlier forgotten)", s.Window.MaxLatencyMs)
	}
	if s.Window.Seconds < 0.99 || s.Window.Seconds > 1.01 {
		t.Fatalf("window seconds = %v, want ~1", s.Window.Seconds)
	}
	// An empty window omits the block rather than reporting zeros.
	if s3 := m.statsRow(started, started.Add(3*time.Second)); s3.Window != nil {
		t.Fatalf("empty window should be nil, got %+v", s3.Window)
	}
}

func TestUnknownRoute(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestDeleteUnknownIDMessage(t *testing.T) {
	ts, idx, _ := newTestServer(t, Config{})
	var errResp map[string]string
	code := post(t, ts.URL+"/delete", deleteRequest{ID: idx.Count() * 2}, &errResp)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d", code)
	}
	if errResp["error"] == "" {
		t.Fatal("no error message")
	}
}

// Undeleting an id whose deletion a compaction reclaimed is the
// client's conflict with the index's state, not a server fault: 409
// with code "purged".
func TestUndeletePurgedIDConflict(t *testing.T) {
	ts, idx, _ := newTestServer(t, Config{})
	if code := post(t, ts.URL+"/delete", deleteRequest{ID: 3}, nil); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	if code := post(t, ts.URL+"/insert", map[string][]float32{"vector": make([]float32, idx.Dim())}, nil); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}
	if err := idx.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	var errResp api.ErrorBody
	code := post(t, ts.URL+"/delete", deleteRequest{ID: 3, Undelete: true}, &errResp)
	if code != http.StatusConflict || errResp.Code != api.CodePurged || errResp.Error == "" {
		t.Fatalf("undelete of a purged id: status %d, body %+v, want 409 with code %q", code, errResp, api.CodePurged)
	}
}

// An insert the trees could not hold — two components of 3e38 put it
// past float32's range from every reference object, yet it is valid
// JSON — is a coded 400, and the index keeps compacting.
func TestInsertOutOfRangeIsBadRequest(t *testing.T) {
	ts, idx, _ := newTestServer(t, Config{})
	vec := make([]float32, idx.Dim())
	vec[0], vec[1] = 3e38, 3e38
	var errResp api.ErrorBody
	code := post(t, ts.URL+"/insert", insertRequest{Vector: vec}, &errResp)
	if code != http.StatusBadRequest || errResp.Code != api.CodeBadVector {
		t.Fatalf("out-of-range insert: status %d, body %+v, want 400 with code %q", code, errResp, api.CodeBadVector)
	}
	if err := idx.Compact(context.Background()); err != nil {
		t.Fatalf("compaction after a refused insert: %v", err)
	}
}

// The /stats io block and the per-query page_hits/page_misses counters
// make the buffer pool's behaviour observable over the wire.
func TestStatsExposeBufferPoolHitRatio(t *testing.T) {
	ts, _, ds := newTestServer(t, Config{})
	queries := ds.PerturbedQueries(5, 0.02, 8)
	var sr api.SearchResponse
	for _, q := range queries {
		if code := post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 5, Stats: true}, &sr); code != 200 {
			t.Fatalf("search status %d", code)
		}
	}
	// Refinement touches the vector store, so pool traffic must be
	// visible per query (hits + misses covers every page touch).
	if sr.Stats == nil || sr.Stats.PageHits+sr.Stats.PageMisses == 0 {
		t.Fatalf("per-query pool counters empty: %+v", sr.Stats)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Index struct {
			IO struct {
				Hits, Misses uint64
				HitRatio     float64 `json:"hit_ratio"`
			}
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	io := st.Index.IO
	if io.Hits+io.Misses == 0 {
		t.Fatalf("io block empty: %+v", io)
	}
	if io.HitRatio < 0 || io.HitRatio > 1 {
		t.Fatalf("hit_ratio out of range: %v", io.HitRatio)
	}
	if want := float64(io.Hits) / float64(io.Hits+io.Misses); io.HitRatio != want {
		t.Fatalf("hit_ratio = %v, want %v", io.HitRatio, want)
	}
}
