package server

import (
	"context"
	"net/http"
	"testing"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/api"
)

func boolp(b bool) *bool { return &b }

// Per-request alpha/gamma/ptolemaic overrides must reach the query and
// be echoed back in the stats block — and match what the library's own
// Query with the same options returns.
func TestSearchPerRequestTuning(t *testing.T) {
	ts, idx, ds := newTestServer(t, Config{})
	q := ds.PerturbedQueries(1, 0.02, 7)[0]

	var got api.SearchResponse
	req := api.SearchRequest{Query: q, K: 5, Stats: true,
		Tuning: api.Tuning{SearchOptions: hdindex.SearchOptions{Alpha: 64, Gamma: 16, Ptolemaic: boolp(true)}}}
	if code := post(t, ts.URL+"/search", req, &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if got.Stats == nil {
		t.Fatal("no stats block")
	}
	if got.Stats.Alpha != 64 || got.Stats.Gamma != 16 || !got.Stats.Ptolemaic {
		t.Fatalf("stats echo %+v, want alpha=64 gamma=16 ptolemaic=true", got.Stats)
	}

	want, err := idx.Query(context.Background(), q, 5,
		hdindex.WithAlpha(64), hdindex.WithGamma(16), hdindex.WithPtolemaic(true), hdindex.WithStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i].ID != want.Results[i].ID {
			t.Fatalf("rank %d: id %d, want %d", i, got.Results[i].ID, want.Results[i].ID)
		}
	}
	if got.Stats.Candidates != want.Stats.Candidates {
		t.Fatalf("candidates %d, want %d", got.Stats.Candidates, want.Stats.Candidates)
	}

	// The same request without overrides runs the built cascade.
	var def api.SearchResponse
	if code := post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 5, Stats: true}, &def); code != 200 {
		t.Fatalf("status %d", code)
	}
	if def.Stats.Alpha != 128 || def.Stats.Gamma != 32 || def.Stats.Ptolemaic {
		t.Fatalf("default stats echo %+v, want the built cascade 128/32/off", def.Stats)
	}
}

// Tuning values above the server's MaxAlpha cap clamp instead of
// erroring; negative values are a coded 400.
func TestSearchTuningClampAndValidation(t *testing.T) {
	ts, _, ds := newTestServer(t, Config{MaxAlpha: 64})
	q := ds.PerturbedQueries(1, 0.02, 8)[0]

	var got api.SearchResponse
	req := api.SearchRequest{Query: q, K: 5, Stats: true, Tuning: api.Tuning{SearchOptions: hdindex.SearchOptions{Alpha: 100000}}}
	if code := post(t, ts.URL+"/search", req, &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if got.Stats.Alpha != 64 {
		t.Fatalf("alpha clamped to %d, want the MaxAlpha cap 64", got.Stats.Alpha)
	}

	var errResp api.ErrorBody
	req = api.SearchRequest{Query: q, K: 5, Tuning: api.Tuning{SearchOptions: hdindex.SearchOptions{Alpha: -2}}}
	if code := post(t, ts.URL+"/search", req, &errResp); code != http.StatusBadRequest {
		t.Fatalf("negative alpha: status %d", code)
	}
	if errResp.Code != api.CodeBadOptions {
		t.Fatalf("negative alpha: code %q, want %q", errResp.Code, api.CodeBadOptions)
	}

	// A widening cascade is rejected by the library and surfaces as the
	// same coded 400.
	req = api.SearchRequest{Query: q, K: 5, Tuning: api.Tuning{SearchOptions: hdindex.SearchOptions{Alpha: 16, Gamma: 32}}}
	if code := post(t, ts.URL+"/search", req, &errResp); code != http.StatusBadRequest {
		t.Fatalf("widening cascade: status %d", code)
	}
	if errResp.Code != api.CodeBadOptions {
		t.Fatalf("widening cascade: code %q, want %q", errResp.Code, api.CodeBadOptions)
	}
}

// Dimensionality mismatches are a structured 400 with the dim_mismatch
// code on every route that takes vectors.
func TestDimMismatchStructuredError(t *testing.T) {
	ts, _, ds := newTestServer(t, Config{})
	q := ds.PerturbedQueries(1, 0.02, 9)[0]

	cases := []struct {
		name string
		url  string
		body any
	}{
		{"search", "/search", api.SearchRequest{Query: q[:7], K: 5}},
		{"searchbatch", "/searchbatch", api.SearchBatchRequest{Queries: [][]float32{q[:7]}, K: 5}},
		{"insert", "/insert", insertRequest{Vector: q[:7]}},
	}
	for _, c := range cases {
		var errResp api.ErrorBody
		if code := post(t, ts.URL+c.url, c.body, &errResp); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, code)
		}
		if errResp.Code != api.CodeDimMismatch {
			t.Errorf("%s: code %q, want %q", c.name, errResp.Code, api.CodeDimMismatch)
		}
		if errResp.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}
}

// /searchbatch shares the tuning fields and returns per-query stats in
// input order when asked.
func TestSearchBatchPerRequestTuning(t *testing.T) {
	ts, idx, ds := newTestServer(t, Config{})
	queries := ds.PerturbedQueries(4, 0.02, 10)

	var got api.SearchBatchResponse
	req := api.SearchBatchRequest{Queries: queries, K: 5, Stats: true,
		Tuning: api.Tuning{SearchOptions: hdindex.SearchOptions{Gamma: 16}}}
	if code := post(t, ts.URL+"/searchbatch", req, &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(got.Results) != len(queries) || len(got.Stats) != len(queries) {
		t.Fatalf("%d results, %d stats for %d queries", len(got.Results), len(got.Stats), len(queries))
	}
	for qi, q := range queries {
		if got.Stats[qi] == nil || got.Stats[qi].Gamma != 16 {
			t.Fatalf("query %d: stats %+v", qi, got.Stats[qi])
		}
		want, err := idx.Query(context.Background(), q, 5, hdindex.WithGamma(16))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Results {
			if got.Results[qi][i].ID != want.Results[i].ID {
				t.Fatalf("query %d rank %d: id %d, want %d", qi, i, got.Results[qi][i].ID, want.Results[i].ID)
			}
		}
	}

	// Without stats the array stays absent.
	var noStats api.SearchBatchResponse
	if code := post(t, ts.URL+"/searchbatch", api.SearchBatchRequest{Queries: queries, K: 5}, &noStats); code != 200 {
		t.Fatalf("status %d", code)
	}
	if noStats.Stats != nil {
		t.Fatalf("stats present without stats:true: %+v", noStats.Stats)
	}

	// Bad options fail the whole batch with the coded 400.
	var errResp api.ErrorBody
	req = api.SearchBatchRequest{Queries: queries, K: 5, Tuning: api.Tuning{SearchOptions: hdindex.SearchOptions{Alpha: 8, Gamma: 16}}}
	if code := post(t, ts.URL+"/searchbatch", req, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad batch options: status %d", code)
	}
	if errResp.Code != api.CodeBadOptions {
		t.Fatalf("bad batch options: code %q", errResp.Code)
	}
}
