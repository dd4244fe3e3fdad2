package cluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/cluster"
)

// fastOpts keeps the retry machinery snappy for stub-server tests.
func fastOpts() cluster.Options {
	return cluster.Options{
		HealthInterval: -1,
		DisableHedging: true,
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
		MaxAttempts:    3,
	}
}

// stubManifest builds a manifest (no UUID: stub servers carry no
// identity stamp) over the given per-shard replica lists.
func stubManifest(dim int, shards ...[]string) *cluster.Manifest {
	m := &cluster.Manifest{FormatVersion: cluster.ManifestFormatVersion, Dim: dim}
	for i, reps := range shards {
		m.Shards = append(m.Shards, cluster.ShardSpec{Ordinal: i, Replicas: reps})
	}
	return m
}

// stubNode serves /search and /searchbatch with the given handler and
// a plausible /healthz (dim 4, no identity).
func stubNode(t *testing.T, search http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", search)
	mux.HandleFunc("POST /searchbatch", search)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"status":"ok","count":1,"dim":4}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// answer writes a canned one-result reply with the given local id.
func answer(w http.ResponseWriter, localID int, dist float64) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"results":[{"id":%d,"dist":%g}]}`, localID, dist)
}

// deadAddr returns a loopback address with nothing listening: instant
// connection refused.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return "http://" + addr
}

func newCoordinator(t *testing.T, man *cluster.Manifest, opts cluster.Options) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	coord, err := cluster.New(man, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	return coord, front
}

func searchOnce(t *testing.T, base string, req map[string]any) (int, []byte) {
	t.Helper()
	if _, ok := req["query"]; !ok {
		req["query"] = []float32{0.1, 0.2, 0.3, 0.4}
	}
	return post(t, base, "/search", req)
}

func TestFailoverOnReplicaFailure(t *testing.T) {
	var aHits, bHits atomic.Int64
	nodeA := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		aHits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	nodeB := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		bHits.Add(1)
		answer(w, 7, 0.25)
	})
	coord, front := newCoordinator(t, stubManifest(4, []string{nodeA.URL, nodeB.URL}), fastOpts())

	code, body := searchOnce(t, front.URL, map[string]any{"k": 1})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp struct {
		Results []struct {
			ID   uint64  `json:"id"`
			Dist float64 `json:"dist"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != 7 || resp.Results[0].Dist != 0.25 {
		t.Fatalf("unexpected results: %+v", resp.Results)
	}
	if aHits.Load() == 0 || bHits.Load() == 0 {
		t.Fatalf("hits: A=%d B=%d, want both tried", aHits.Load(), bHits.Load())
	}
	st := coord.Stats()
	if st.Failovers == 0 || st.Retries == 0 {
		t.Fatalf("failovers=%d retries=%d, want both > 0", st.Failovers, st.Retries)
	}
}

// TestShedFailsOverImmediately pins the Retry-After fast path: a 503
// shed from admission control routes to the next replica with no
// backoff sleep, even though the shed priced the retry in seconds.
func TestShedFailsOverImmediately(t *testing.T) {
	nodeA := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "5")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"admission queue full","code":"overloaded"}`)
	})
	nodeB := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		answer(w, 0, 0.5)
	})
	opts := fastOpts()
	// A deliberately huge backoff: if the shed path slept it, the test's
	// elapsed-time bound fails.
	opts.BackoffBase = 2 * time.Second
	opts.BackoffMax = 2 * time.Second
	_, front := newCoordinator(t, stubManifest(4, []string{nodeA.URL, nodeB.URL}), opts)

	start := time.Now()
	code, body := searchOnce(t, front.URL, map[string]any{"k": 1})
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("shed failover took %v, want immediate (no backoff sleep)", elapsed)
	}
}

// TestTenantThrottleFailsOver covers the 429 leg of the shed
// classification.
func TestTenantThrottleFailsOver(t *testing.T) {
	nodeA := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"tenant over budget","code":"tenant_throttled"}`)
	})
	nodeB := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		answer(w, 0, 0.5)
	})
	_, front := newCoordinator(t, stubManifest(4, []string{nodeA.URL, nodeB.URL}), fastOpts())
	if code, body := searchOnce(t, front.URL, map[string]any{"k": 1}); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
}

// TestPermanentErrorPropagates pins the no-retry path: a shard's 4xx
// means the request itself is wrong, so the coordinator relays the
// structured error after exactly one attempt.
func TestPermanentErrorPropagates(t *testing.T) {
	var hits atomic.Int64
	node := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		io.WriteString(w, `{"error":"alpha must be >= 0, got -1","code":"bad_options"}`)
	})
	_, front := newCoordinator(t, stubManifest(4, []string{node.URL, node.URL}), fastOpts())

	code, body := searchOnce(t, front.URL, map[string]any{"k": 1})
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, body)
	}
	var eb struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "bad_options" {
		t.Fatalf("error body not relayed: %s (err %v)", body, err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("%d attempts on a permanent error, want 1", n)
	}
}

// TestOverCapShardReplyIs502: a shard reply one byte over the cap is a
// 502 naming the shard and the cap, after one attempt — every replica
// would send the same bytes — and not a cut-off body read as a
// malformed reply (a 500).
func TestOverCapShardReplyIs502(t *testing.T) {
	const limit = 256
	cluster.SetMaxReplyBytes(t, limit)
	var hits atomic.Int64
	node := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		head, tail := `{"results":[{"id":1,"dist":0.5}],"pad":"`, `"}`
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, head+strings.Repeat("x", limit+1-len(head)-len(tail))+tail)
	})
	_, front := newCoordinator(t, stubManifest(4, []string{node.URL, node.URL}), fastOpts())

	code, body := searchOnce(t, front.URL, map[string]any{"k": 1})
	if code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", code, body)
	}
	if want := fmt.Sprintf("shard 0 reply exceeds %d bytes", limit); !strings.Contains(string(body), want) {
		t.Fatalf("error body %s does not say %q", body, want)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("%d attempts on an over-cap reply, want 1", n)
	}
}

// TestCoordinatorServerTiming: coordinator /search and /searchbatch
// answers carry the edge's Server-Timing header, as a shard server's
// do.
func TestCoordinatorServerTiming(t *testing.T) {
	node := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/searchbatch" {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"results":[[{"id":3,"dist":0.5}]]}`)
			return
		}
		answer(w, 3, 0.5)
	})
	_, front := newCoordinator(t, stubManifest(4, []string{node.URL}), fastOpts())
	for path, body := range map[string]string{
		"/search":      `{"query":[0.1,0.2,0.3,0.4],"k":1}`,
		"/searchbatch": `{"queries":[[0.1,0.2,0.3,0.4]],"k":1}`,
	} {
		resp, err := http.Post(front.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		st := resp.Header.Get("Server-Timing")
		dur, ok := strings.CutPrefix(st, "total;dur=")
		if ms, err := strconv.ParseFloat(dur, 64); resp.StatusCode != http.StatusOK || !ok || err != nil || ms < 0 {
			t.Fatalf("%s: status %d, Server-Timing %q", path, resp.StatusCode, st)
		}
	}
}

func TestPartialResultsAndRequireFull(t *testing.T) {
	nodeA := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/searchbatch" {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"results":[[{"id":3,"dist":0.5}],[{"id":3,"dist":0.5}]]}`)
			return
		}
		answer(w, 3, 0.5)
	})
	man := stubManifest(4, []string{nodeA.URL}, []string{deadAddr(t)})
	coord, front := newCoordinator(t, man, fastOpts())

	// Default policy: the merged partial answer, missing ordinals echoed.
	code, body := searchOnce(t, front.URL, map[string]any{"k": 2})
	if code != http.StatusOK {
		t.Fatalf("partial search: status %d: %s", code, body)
	}
	var resp struct {
		Results []struct {
			ID uint64 `json:"id"`
		} `json:"results"`
		Stats struct {
			PartialShards []int `json:"partial_shards"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// Shard 0's local id 3 in a 2-shard layout is global 3*2+0 = 6.
	if len(resp.Results) != 1 || resp.Results[0].ID != 6 {
		t.Fatalf("partial results: %+v", resp.Results)
	}
	if len(resp.Stats.PartialShards) != 1 || resp.Stats.PartialShards[0] != 1 {
		t.Fatalf("partial_shards = %v, want [1]", resp.Stats.PartialShards)
	}

	// require_full: the same failure becomes a 503 shard_unavailable.
	code, body = searchOnce(t, front.URL, map[string]any{"k": 2, "require_full": true})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("require_full: status %d, want 503: %s", code, body)
	}
	var eb struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "shard_unavailable" {
		t.Fatalf("require_full error body: %s", body)
	}

	st := coord.Stats()
	if st.PartialResponses == 0 || st.ShardUnavailable == 0 {
		t.Fatalf("partial=%d unavailable=%d, want both > 0", st.PartialResponses, st.ShardUnavailable)
	}

	// Batch leg: partial_shards surfaces at the batch level.
	code, body = post(t, front.URL, "/searchbatch", map[string]any{
		"queries": [][]float32{{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6, 0.7, 0.8}}, "k": 2,
	})
	if code != http.StatusOK {
		t.Fatalf("partial batch: status %d: %s", code, body)
	}
	var bresp struct {
		Results       [][]struct{ ID uint64 } `json:"results"`
		PartialShards []int                   `json:"partial_shards"`
	}
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 2 || len(bresp.PartialShards) != 1 || bresp.PartialShards[0] != 1 {
		t.Fatalf("batch partial: results=%d partial_shards=%v", len(bresp.Results), bresp.PartialShards)
	}
}

func TestAllShardsDownIs503(t *testing.T) {
	opts := fastOpts()
	opts.MaxAttempts = 2
	_, front := newCoordinator(t, stubManifest(4, []string{deadAddr(t)}), opts)
	code, body := searchOnce(t, front.URL, map[string]any{"k": 1})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, body)
	}
	if !strings.Contains(string(body), "shard_unavailable") {
		t.Fatalf("body: %s", body)
	}
}

func TestCoordinatorValidation(t *testing.T) {
	node := stubNode(t, func(w http.ResponseWriter, r *http.Request) { answer(w, 0, 0.5) })
	_, front := newCoordinator(t, stubManifest(4, []string{node.URL}), fastOpts())

	cases := []struct {
		name string
		req  map[string]any
		code int
		want string
	}{
		{"dim mismatch", map[string]any{"query": []float32{1, 2}, "k": 1}, 400, "dim_mismatch"},
		{"bad k", map[string]any{"query": []float32{1, 2, 3, 4}, "k": 0}, 400, "k must be"},
		{"negative alpha", map[string]any{"query": []float32{1, 2, 3, 4}, "k": 1, "alpha": -1}, 400, "bad_options"},
		{"mc below k", map[string]any{"query": []float32{1, 2, 3, 4}, "k": 5, "max_candidates": 3}, 400, "bad_options"},
		{"unknown field", map[string]any{"query": []float32{1, 2, 3, 4}, "k": 1, "wat": true}, 400, "invalid request body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, front.URL, "/search", tc.req)
			if code != tc.code || !strings.Contains(string(body), tc.want) {
				t.Fatalf("status %d body %s, want %d containing %q", code, body, tc.code, tc.want)
			}
		})
	}
}

// TestHealthStateMachine drives a replica healthy → suspect → down via
// failed probes, then back to healthy on recovery, watching the
// coordinator's own /healthz fold the table into ok/degraded.
func TestHealthStateMachine(t *testing.T) {
	var bad atomic.Bool
	nodeA := stubNode(t, func(w http.ResponseWriter, r *http.Request) { answer(w, 1, 0.5) })
	// nodeA's healthz is always fine; flaky's healthz fails on demand.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", func(w http.ResponseWriter, r *http.Request) { answer(w, 1, 0.75) })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if bad.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, `{"status":"ok","count":1,"dim":4}`)
	})
	flaky := httptest.NewServer(mux)
	t.Cleanup(flaky.Close)

	opts := fastOpts()
	opts.HealthInterval = 20 * time.Millisecond
	coord, front := newCoordinator(t, stubManifest(4, []string{flaky.URL, nodeA.URL}), opts)

	waitStatus := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(front.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var hz struct {
				Status string `json:"status"`
			}
			err = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if err == nil && hz.Status == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("coordinator never reached status %q (last %q)", want, hz.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	waitStatus("ok")
	bad.Store(true)
	waitStatus("degraded")
	// The down replica is routed around: queries keep succeeding.
	if code, body := searchOnce(t, front.URL, map[string]any{"k": 1}); code != http.StatusOK {
		t.Fatalf("query during replica outage: %d %s", code, body)
	}
	st := coord.Stats()
	if got := st.Shards[0].Replicas[0].State; got != "down" && got != "suspect" {
		t.Fatalf("flaky replica state %q, want suspect/down", got)
	}
	bad.Store(false)
	waitStatus("ok")
}

// TestProbeRejectsLaterMiswiring: a replica whose identity changes
// mid-run (restarted onto the wrong directory) is rejected by the next
// probe round, not just at startup.
func TestProbeRejectsLaterMiswiring(t *testing.T) {
	var wrong atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", func(w http.ResponseWriter, r *http.Request) { answer(w, 0, 0.5) })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		shard := 0
		if wrong.Load() {
			shard = 1
		}
		fmt.Fprintf(w, `{"status":"ok","count":1,"dim":4,"identity":{"cluster_uuid":"u1","shard":%d,"shards":2,"dim":4}}`, shard)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	good := stubNode(t, func(w http.ResponseWriter, r *http.Request) { answer(w, 0, 0.25) })

	man := stubManifest(4, []string{ts.URL}, []string{good.URL})
	// No manifest UUID (the good stub is unstamped), but the flaky
	// node's own stamp must still match its slot.
	opts := fastOpts()
	opts.HealthInterval = 20 * time.Millisecond
	coord, _ := newCoordinator(t, man, opts)

	deadline := time.Now().Add(5 * time.Second)
	for coord.Stats().Shards[0].Replicas[0].State != "healthy" {
		if time.Now().After(deadline) {
			t.Fatal("replica never verified healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
	wrong.Store(true)
	for coord.Stats().Shards[0].Replicas[0].State != "rejected" {
		if time.Now().After(deadline) {
			t.Fatalf("miswired replica never rejected: %+v", coord.Stats().Shards[0].Replicas[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
