package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/api"
	"github.com/hd-index/hdindex/internal/telemetry"
)

// logCapture is the io.Writer behind a test's Config.Logger. Handlers
// log on the server's goroutines, so reads take the same lock.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *logCapture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

// records decodes and drains the JSON log lines written so far.
func (c *logCapture) records(t *testing.T) []map[string]any {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []map[string]any
	dec := json.NewDecoder(&c.buf)
	for dec.More() {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("log line is not JSON: %v", err)
		}
		out = append(out, rec)
	}
	c.buf.Reset()
	return out
}

// The slow-query log, armed with a threshold every query crosses: one
// record per slow /search carrying the phase breakdown and the work
// counters, one aggregated record per /searchbatch whose counters are
// the sum of the per-query stats — and stats forced on for the log are
// still stripped from a response that did not ask for them.
func TestSlowQueryLog(t *testing.T) {
	var logs logCapture
	ts, _, ds := newTestServer(t, Config{
		SlowQueryThreshold: time.Nanosecond,
		Logger:             slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	queries := ds.PerturbedQueries(6, 0.02, 77)
	counters := []string{"candidates", "tree_entries", "page_reads", "page_misses", "exact_distances", "memtable_scanned"}

	var single api.SearchResponse
	if code := post(t, ts.URL+"/search", api.SearchRequest{Query: queries[0], K: 7}, &single); code != 200 {
		t.Fatalf("/search status %d", code)
	}
	if single.Stats != nil {
		t.Errorf("stats requested only for the log leaked into the response: %+v", single.Stats)
	}
	recs := logs.records(t)
	if len(recs) != 1 {
		t.Fatalf("%d log records for one slow /search, want 1: %v", len(recs), recs)
	}
	rec := recs[0]
	if rec["msg"] != "slow query" || rec["level"] != "WARN" || rec["endpoint"] != "search" ||
		rec["queries"] != 1.0 || rec["k"] != 7.0 || rec["alpha"] != 128.0 || rec["gamma"] != 32.0 {
		t.Errorf("slow /search record %v", rec)
	}
	phases, _ := rec["phases"].(map[string]any)
	for i := 0; i < telemetry.NumPhases; i++ {
		p := telemetry.Phase(i)
		if _, ok := phases[p.String()]; !ok {
			t.Errorf("phases group %v lacks %q", phases, p)
		}
	}
	for _, name := range counters {
		if _, ok := rec[name].(float64); !ok {
			t.Errorf("slow /search record lacks counter %q: %v", name, rec)
		}
	}
	if rec["candidates"].(float64) <= 0 || rec["tree_entries"].(float64) <= 0 {
		t.Errorf("work counters are empty: %v", rec)
	}

	var batch api.SearchBatchResponse
	if code := post(t, ts.URL+"/searchbatch", api.SearchBatchRequest{Queries: queries, K: 5, Stats: true}, &batch); code != 200 {
		t.Fatalf("/searchbatch status %d", code)
	}
	recs = logs.records(t)
	if len(recs) != 1 {
		t.Fatalf("%d log records for one slow /searchbatch, want 1 aggregate: %v", len(recs), recs)
	}
	rec = recs[0]
	if rec["endpoint"] != "searchbatch" || rec["queries"] != float64(len(queries)) || rec["k"] != 5.0 ||
		rec["alpha"] != 128.0 || rec["gamma"] != 32.0 {
		t.Errorf("slow /searchbatch record %v", rec)
	}
	want := make(map[string]float64, len(counters))
	for _, st := range batch.Stats {
		want["candidates"] += float64(st.Candidates)
		want["tree_entries"] += float64(st.TreeEntries)
		want["page_reads"] += float64(st.PageReads)
		want["page_misses"] += float64(st.PageMisses)
		want["exact_distances"] += float64(st.ExactDistances)
		want["memtable_scanned"] += float64(st.MemtableScanned)
	}
	for _, name := range counters {
		if rec[name] != want[name] {
			t.Errorf("aggregate %s = %v, want the per-query sum %v", name, rec[name], want[name])
		}
	}

	// Unarmed, nothing is logged.
	var quiet logCapture
	ts2, _, _ := newTestServer(t, Config{Logger: slog.New(slog.NewJSONHandler(&quiet, nil))})
	if code := post(t, ts2.URL+"/search", api.SearchRequest{Query: queries[0], K: 7}, nil); code != 200 {
		t.Fatalf("/search status %d", code)
	}
	if recs := quiet.records(t); len(recs) != 0 {
		t.Errorf("slow-query log off, yet logged %v", recs)
	}
}

// net/http/pprof is mounted only behind Config.Pprof.
func TestPprofMount(t *testing.T) {
	for _, on := range []bool{true, false} {
		ts, _, _ := newTestServer(t, Config{Pprof: on})
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusNotFound
		if on {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("Pprof=%v: GET /debug/pprof/ = %d, want %d", on, resp.StatusCode, want)
		}
	}
}
