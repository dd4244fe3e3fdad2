package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/api"
	"github.com/hd-index/hdindex/internal/data"
)

// TestStatsIndexBlockMatchesFacade pins the /stats "index" block and the
// index, pool and WAL samples of /metrics to the facade's accessors, key
// by key and value by value, on a bare and a 4-shard layout with one
// deletion each. Every key listed in want must be there with its value;
// a key not in want may appear only if extra names it, with extra's
// value.
func TestStatsIndexBlockMatchesFacade(t *testing.T) {
	ds := data.Generate(data.Config{Name: "pin", N: 1201, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 17})
	for _, tc := range []struct {
		name   string
		shards int
	}{{"bare", 0}, {"4 shards", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			idx, err := hdindex.Build(t.TempDir(), ds.Vectors, hdindex.Options{
				Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 1, Shards: tc.shards,
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
			for _, q := range ds.PerturbedQueries(2, 0.02, 8) {
				if code := post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 5}, nil); code != 200 {
					t.Fatalf("search status %d", code)
				}
			}
			var st struct {
				Index map[string]any `json:"index"`
			}
			if err := json.Unmarshal(get(t, ts.URL+"/stats"), &st); err != nil {
				t.Fatal(err)
			}
			fams := parsePromText(t, string(get(t, ts.URL+"/metrics")))

			info, pool, wal := idx.Info(), idx.IOStats(), idx.IngestStats()
			if info.Deleted != 1 || pool.Reads == 0 {
				t.Fatalf("fixture: %d deleted, %d page reads; want 1 and some", info.Deleted, pool.Reads)
			}
			checkBlock(t, "index", st.Index, map[string]any{
				"count":        idx.Count(),
				"dim":          idx.Dim(),
				"deleted":      idx.DeletedCount(),
				"size_on_disk": idx.SizeOnDisk(),
				"shards":       idx.NumShards(),
				"per_shard":    nil, // checked row by row below
				"io":           nil,
				"wal":          nil,
			}, nil)

			rows, _ := st.Index["per_shard"].([]any)
			if len(rows) != len(info.Shards) || len(rows) != max(tc.shards, 1) {
				t.Fatalf("per_shard has %d rows, the index %d shards", len(rows), len(info.Shards))
			}
			for s, sh := range info.Shards {
				row, _ := rows[s].(map[string]any)
				checkBlock(t, "index.per_shard[]", row, map[string]any{
					"id":           s,
					"count":        sh.Count,
					"deleted":      sh.Deleted,
					"size_on_disk": sh.SizeOnDisk,
				}, map[string]any{
					"clustered": sh.Clustered,
					"records":   sh.Records,
				})
			}

			ioBlock, _ := st.Index["io"].(map[string]any)
			checkBlock(t, "index.io", ioBlock, map[string]any{
				"reads":     pool.Reads,
				"writes":    pool.Writes,
				"hits":      pool.Hits,
				"misses":    pool.Misses,
				"hit_ratio": pool.HitRatio(),
			}, map[string]any{
				"allocs": pool.Allocs,
			})

			walBlock, _ := st.Index["wal"].(map[string]any)
			wantWAL, _ := asJSON(t, wal).(map[string]any)
			checkBlock(t, "index.wal", walBlock, wantWAL, nil)

			for name, want := range map[string]float64{
				"hdindex_index_vectors":          float64(idx.Count()),
				"hdindex_index_deleted":          float64(idx.DeletedCount()),
				"hdindex_index_shards":           float64(idx.NumShards()),
				"hdindex_index_size_bytes":       float64(idx.SizeOnDisk()),
				"hdindex_pool_reads_total":       float64(pool.Reads),
				"hdindex_pool_writes_total":      float64(pool.Writes),
				"hdindex_pool_hits_total":        float64(pool.Hits),
				"hdindex_pool_misses_total":      float64(pool.Misses),
				"hdindex_memtable_vectors":       float64(wal.MemtableVectors),
				"hdindex_wal_bytes":              float64(wal.WALBytes),
				"hdindex_wal_records":            float64(wal.WALRecords),
				"hdindex_wal_syncs_total":        float64(wal.WALSyncs),
				"hdindex_wal_replayed_records":   float64(wal.Replayed),
				"hdindex_wal_failed":             float64(boolGauge(wal.WALFailed)),
				"hdindex_compactions_total":      float64(wal.Compactions),
				"hdindex_compact_failures_total": float64(wal.CompactFailures),
				"hdindex_compact_breaker_open":   float64(boolGauge(wal.CompactBreaker == "open")),
			} {
				if got, ok := fams.sampleValue(name, nil); !ok || got != want {
					t.Errorf("/metrics %s = %v (present %v), want %v", name, got, ok, want)
				}
			}
		})
	}
}

// checkBlock compares one decoded JSON object with want and extra (see
// TestStatsIndexBlockMatchesFacade); a nil value in want checks only
// that the key is present.
func checkBlock(t *testing.T, path string, got, want, extra map[string]any) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: missing or not an object", path)
	}
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s.%s: missing", path, k)
		case w != nil && !reflect.DeepEqual(g, asJSON(t, w)):
			t.Errorf("%s.%s = %v, want %v", path, k, g, w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; ok {
			continue
		}
		if w, ok := extra[k]; !ok {
			t.Errorf("%s.%s: unexpected key", path, k)
		} else if !reflect.DeepEqual(g, asJSON(t, w)) {
			t.Errorf("%s.%s = %v, want %v", path, k, g, w)
		}
	}
}

// asJSON is v as encoding/json decodes it into an interface value.
func asJSON(t *testing.T, v any) any {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// get fetches url and returns the body of a 200 response.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}
