package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/api"
	"github.com/hd-index/hdindex/internal/cluster"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/server"
	"github.com/hd-index/hdindex/internal/shard"
)

// testCluster is a full N-node cluster over one sharded build, plus the
// in-process sharded server it must be indistinguishable from.
type testCluster struct {
	inproc *httptest.Server   // server over the whole sharded index
	whole  *hdindex.Index     // the handle that server serves
	nodes  []*httptest.Server // one server per shard directory
	coord  *cluster.Coordinator
	front  *httptest.Server // the coordinator's HTTP face
	man    *cluster.Manifest
	ds     *data.Dataset
}

const (
	eqShards = 4
	eqDim    = 16
)

// buildCluster builds a 4-shard index, serves the whole of it
// in-process, serves each shard directory from its own server, and
// fronts those with a verified coordinator.
func buildCluster(t *testing.T, copts cluster.Options) *testCluster {
	t.Helper()
	ds := data.Generate(data.Config{Name: "cluster", N: 801, Dim: eqDim, Clusters: 5, Lo: 0, Hi: 1, Seed: 11})
	root := filepath.Join(t.TempDir(), "ix")
	built, err := hdindex.Build(root, ds.Vectors, hdindex.Options{
		Tau: 4, Omega: 8, M: 4, Alpha: 256, Gamma: 64, Seed: 7, Shards: eqShards,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}

	tc := &testCluster{ds: ds}
	openServer := func(dir string) (*httptest.Server, *hdindex.Index) {
		idx, err := hdindex.Open(dir, hdindex.Options{})
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		t.Cleanup(func() { idx.Close() })
		id, err := shard.ReadIdentity(dir)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(idx, server.Config{Identity: id}).Handler())
		t.Cleanup(ts.Close)
		return ts, idx
	}
	tc.inproc, tc.whole = openServer(root)

	tc.man = &cluster.Manifest{FormatVersion: cluster.ManifestFormatVersion, Dim: eqDim}
	for i := 0; i < eqShards; i++ {
		dir := filepath.Join(root, fmt.Sprintf("shard-%02d", i))
		id, err := shard.ReadIdentity(dir)
		if err != nil || id == nil {
			t.Fatalf("shard %d has no identity stamp: %v", i, err)
		}
		tc.man.UUID = id.ClusterUUID
		node, _ := openServer(dir)
		tc.nodes = append(tc.nodes, node)
		tc.man.Shards = append(tc.man.Shards, cluster.ShardSpec{Ordinal: i, Replicas: []string{node.URL}})
	}

	coord, err := cluster.New(tc.man, copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	tc.front = httptest.NewServer(coord.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

func post(t *testing.T, base, path string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

// TestClusterEquivalence pins the tentpole guarantee: the N-node
// cluster answers /search and /searchbatch byte-identically (ids,
// distances, and tie order) to the in-process N-shard index, across
// per-request cascade overrides.
func TestClusterEquivalence(t *testing.T) {
	tc := buildCluster(t, cluster.Options{HealthInterval: -1, DisableHedging: true})
	queries := tc.ds.PerturbedQueries(8, 0.01, 3)

	reqs := []map[string]any{
		{"k": 10},
		{"k": 1},
		{"k": 5, "alpha": 64},
		{"k": 10, "max_candidates": 64},
		{"k": 3, "gamma": 16},
		{"k": 5, "ptolemaic": false},
		{"k": 7, "stats": true},
	}
	reqs = append(reqs, presetRows...)
	for qi, q := range queries {
		for _, base := range reqs {
			req := map[string]any{"query": q}
			for k, v := range base {
				req[k] = v
			}
			label := fmt.Sprintf("query %d %v", qi, base)
			wantCode, wantBody := post(t, tc.inproc.URL, "/search", req)
			gotCode, gotBody := post(t, tc.front.URL, "/search", req)
			if wantCode != http.StatusOK || gotCode != http.StatusOK {
				t.Fatalf("%s: inproc %d, cluster %d: %s / %s", label, wantCode, gotCode, wantBody, gotBody)
			}
			var want, got struct {
				Results json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(wantBody, &want); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(gotBody, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Results, got.Results) {
				t.Fatalf("%s: results diverge\ninproc:  %s\ncluster: %s", label, want.Results, got.Results)
			}
			if preset, ok := base["preset"].(string); ok {
				requireQueryResults(t, label, tc.whole, q, base["k"].(int), preset, got.Results)
			}
		}
	}
}

// presetRows are the named quality presets: the coordinator forwards
// "preset" to every shard server, which resolves it against the same
// built parameters the in-process index does.
var presetRows = []map[string]any{
	{"k": 10, "preset": "exact"},
	{"k": 10, "preset": "balanced"},
	{"k": 10, "preset": "fast"},
}

// requireQueryResults checks a wire results array against Query on the
// in-process 4-shard index with the preset's options.
func requireQueryResults(t *testing.T, label string, whole *hdindex.Index, q []float32, k int, preset string, got json.RawMessage) {
	t.Helper()
	o, err := whole.PresetOptions(hdindex.Preset(preset), k)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := whole.Query(context.Background(), q, k, hdindex.WithOptions(o))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(resp.Results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("%s: results diverge from Query with PresetOptions\nquery:   %s\ncluster: %s", label, want, got)
	}
}

// TestClusterPresetWithKnobsRelayed: the coordinator forwards "preset"
// instead of rejecting it, and a preset combined with explicit knobs is
// still the shard servers' 400 bad_options, relayed verbatim.
func TestClusterPresetWithKnobsRelayed(t *testing.T) {
	tc := buildCluster(t, cluster.Options{HealthInterval: -1, DisableHedging: true})
	q := tc.ds.PerturbedQueries(1, 0.01, 9)[0]
	for _, path := range []string{"/search", "/searchbatch"} {
		req := map[string]any{"k": 5, "preset": "fast", "alpha": 64}
		if path == "/search" {
			req["query"] = q
		} else {
			req["queries"] = [][]float32{q}
		}
		wantCode, wantBody := post(t, tc.inproc.URL, path, req)
		gotCode, gotBody := post(t, tc.front.URL, path, req)
		if wantCode != http.StatusBadRequest || gotCode != http.StatusBadRequest {
			t.Fatalf("%s: inproc %d, cluster %d, want 400 from both: %s / %s", path, wantCode, gotCode, wantBody, gotBody)
		}
		var eb api.ErrorBody
		if err := json.Unmarshal(gotBody, &eb); err != nil || eb.Code != api.CodeBadOptions {
			t.Fatalf("%s: cluster error body %s (err %v), want code %q", path, gotBody, err, api.CodeBadOptions)
		}
		if !bytes.Equal(wantBody, gotBody) {
			t.Fatalf("%s: error body not relayed verbatim\ninproc:  %s\ncluster: %s", path, wantBody, gotBody)
		}
	}
}

// TestClusterEchoesPreset: the merged stats block echoes the preset
// the shard servers resolved, on /search and /searchbatch, on a full
// answer and on a partial one.
func TestClusterEchoesPreset(t *testing.T) {
	tc := buildCluster(t, fastOpts())
	q := tc.ds.PerturbedQueries(1, 0.01, 9)[0]
	type stats struct {
		Preset        string `json:"preset"`
		PartialShards []int  `json:"partial_shards"`
	}
	check := func(label string, partial []int) {
		t.Helper()
		var one struct{ Stats stats }
		code, body := post(t, tc.front.URL, "/search", map[string]any{"query": q, "k": 5, "preset": "fast", "stats": true})
		if err := json.Unmarshal(body, &one); code != http.StatusOK || err != nil {
			t.Fatalf("%s search: status %d (err %v): %s", label, code, err, body)
		}
		if one.Stats.Preset != "fast" || !slices.Equal(one.Stats.PartialShards, partial) {
			t.Errorf("%s search: stats echo %+v, want preset fast and partial_shards %v", label, one.Stats, partial)
		}
		var batch struct{ Stats []stats }
		code, body = post(t, tc.front.URL, "/searchbatch", map[string]any{"queries": [][]float32{q}, "k": 5, "preset": "fast", "stats": true})
		if err := json.Unmarshal(body, &batch); code != http.StatusOK || err != nil || len(batch.Stats) != 1 {
			t.Fatalf("%s searchbatch: status %d (err %v): %s", label, code, err, body)
		}
		if batch.Stats[0].Preset != "fast" {
			t.Errorf("%s searchbatch: stats echo %+v, want preset fast", label, batch.Stats[0])
		}
	}
	check("full", nil)
	tc.nodes[1].Close()
	check("partial", []int{1})
}

// TestClusterEquivalenceBatch is the batch-endpoint leg of the
// guarantee: one scatter per shard carrying the whole batch, merged
// per query, still byte-identical.
func TestClusterEquivalenceBatch(t *testing.T) {
	tc := buildCluster(t, cluster.Options{HealthInterval: -1, DisableHedging: true})
	queries := tc.ds.PerturbedQueries(6, 0.01, 5)
	for _, base := range append([]map[string]any{{"k": 10, "max_candidates": 80}}, presetRows...) {
		req := map[string]any{"queries": queries}
		for k, v := range base {
			req[k] = v
		}
		wantCode, wantBody := post(t, tc.inproc.URL, "/searchbatch", req)
		gotCode, gotBody := post(t, tc.front.URL, "/searchbatch", req)
		if wantCode != http.StatusOK || gotCode != http.StatusOK {
			t.Fatalf("%v: inproc %d, cluster %d: %s / %s", base, wantCode, gotCode, wantBody, gotBody)
		}
		var want, got struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(wantBody, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(gotBody, &got); err != nil {
			t.Fatal(err)
		}
		if len(want.Results) != len(queries) || len(got.Results) != len(queries) {
			t.Fatalf("%v: result counts: inproc %d, cluster %d", base, len(want.Results), len(got.Results))
		}
		for i := range want.Results {
			label := fmt.Sprintf("batch query %d %v", i, base)
			if !bytes.Equal(want.Results[i], got.Results[i]) {
				t.Fatalf("%s diverges\ninproc:  %s\ncluster: %s", label, want.Results[i], got.Results[i])
			}
			if preset, ok := base["preset"].(string); ok {
				requireQueryResults(t, label, tc.whole, queries[i], base["k"].(int), preset, got.Results[i])
			}
		}
	}
}

// TestClusterStatsAggregation checks that the cluster's work counters
// and cascade echo match the in-process sharded aggregation (wall-time
// fields excluded: they measure, not count).
func TestClusterStatsAggregation(t *testing.T) {
	tc := buildCluster(t, cluster.Options{HealthInterval: -1, DisableHedging: true})
	q := tc.ds.PerturbedQueries(1, 0.01, 7)[0]
	req := map[string]any{"query": q, "k": 10, "stats": true}

	type counters struct {
		Candidates      int  `json:"candidates"`
		TreeEntries     int  `json:"tree_entries"`
		ExactDistances  int  `json:"exact_distances"`
		MemtableScanned int  `json:"memtable_scanned"`
		Alpha           int  `json:"alpha"`
		Beta            int  `json:"beta"`
		Gamma           int  `json:"gamma"`
		Ptolemaic       bool `json:"ptolemaic"`
	}
	var want, got struct {
		Stats counters `json:"stats"`
	}
	_, wantBody := post(t, tc.inproc.URL, "/search", req)
	_, gotBody := post(t, tc.front.URL, "/search", req)
	if err := json.Unmarshal(wantBody, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gotBody, &got); err != nil {
		t.Fatal(err)
	}
	if want.Stats != got.Stats {
		t.Fatalf("stats diverge:\ninproc:  %+v\ncluster: %+v", want.Stats, got.Stats)
	}
	if want.Stats.Candidates == 0 {
		t.Fatal("stats not populated")
	}
}

// TestVerifyRejectsMiswiring pins the startup identity check: swapped
// endpoints, a foreign build, and an unstamped standalone index must
// all refuse to start.
func TestVerifyRejectsMiswiring(t *testing.T) {
	tc := buildCluster(t, cluster.Options{HealthInterval: -1})

	newCoord := func(man *cluster.Manifest) error {
		c, err := cluster.New(man, cluster.Options{HealthInterval: -1})
		if err != nil {
			return err
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return c.Verify(ctx)
	}

	t.Run("swapped shards", func(t *testing.T) {
		man := *tc.man
		man.Shards = append([]cluster.ShardSpec(nil), tc.man.Shards...)
		man.Shards[0] = cluster.ShardSpec{Ordinal: 0, Replicas: tc.man.Shards[1].Replicas}
		man.Shards[1] = cluster.ShardSpec{Ordinal: 1, Replicas: tc.man.Shards[0].Replicas}
		if err := newCoord(&man); err == nil {
			t.Fatal("Verify accepted swapped shard endpoints")
		}
	})
	t.Run("foreign uuid", func(t *testing.T) {
		man := *tc.man
		man.UUID = "0123456789abcdef0123456789abcdef"
		if err := newCoord(&man); err == nil {
			t.Fatal("Verify accepted endpoints of a different build")
		}
	})
	t.Run("unstamped endpoint", func(t *testing.T) {
		// A standalone (unsharded) server presents no identity; with a
		// manifest UUID set it cannot be trusted to hold any shard.
		ds := data.Generate(data.Config{Name: "standalone", N: 64, Dim: eqDim, Clusters: 2, Lo: 0, Hi: 1, Seed: 3})
		dir := filepath.Join(t.TempDir(), "solo")
		idx, err := hdindex.Build(dir, ds.Vectors, hdindex.Options{Tau: 4, Omega: 8, M: 4, Alpha: 64, Gamma: 16, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		ts := httptest.NewServer(server.New(idx, server.Config{}).Handler())
		defer ts.Close()
		man := *tc.man
		man.Shards = append([]cluster.ShardSpec(nil), tc.man.Shards...)
		man.Shards[2] = cluster.ShardSpec{Ordinal: 2, Replicas: []string{ts.URL}}
		if err := newCoord(&man); err == nil {
			t.Fatal("Verify accepted an unstamped endpoint")
		}
	})
}
