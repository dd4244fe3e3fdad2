package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hd-index/hdindex/internal/admission"
	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/telemetry"
)

var (
	goldenResults = []core.Result{{ID: 42, Dist: 0}, {ID: 7, Dist: 1.5}}
	goldenStats   = &core.QueryStats{
		Candidates: 12, TreeEntries: 512, PageReads: 9, PageHits: 30, PageMisses: 9,
		ExactDistances: 12, MemtableScanned: 3, Alpha: 64, Beta: 64, Gamma: 16, Ptolemaic: true,
		Phases: telemetry.PhaseNS{1500, 250, 4000, 0, 125},
	}
)

// goldenCase is one wire shape and its exact bytes.
type goldenCase struct {
	name string
	v    any
	want string
}

// goldenCases are the wire shapes TestGoldenResponses pins and
// FuzzSearchResponse starts from.
func goldenCases() []goldenCase {
	withPreset := &QueryStats{QueryStats: *goldenStats}
	withPreset.Preset = core.PresetFast
	partial := &QueryStats{QueryStats: *goldenStats, PartialShards: []int{1}}
	partial.Phases = telemetry.PhaseNS{} // telemetry off: phase_us omitted
	partial.Degraded = true

	return []goldenCase{
		{"search without stats",
			SearchResponse{Results: goldenResults},
			`{"results":[{"id":42,"dist":0},{"id":7,"dist":1.5}]}`},
		{"search with stats",
			SearchResponse{Results: goldenResults, Stats: withPreset},
			`{"results":[{"id":42,"dist":0},{"id":7,"dist":1.5}],"stats":{"candidates":12,"tree_entries":512,` +
				`"page_reads":9,"page_hits":30,"page_misses":9,"exact_distances":12,"memtable_scanned":3,` +
				`"alpha":64,"beta":64,"gamma":16,"ptolemaic":true,"preset":"fast",` +
				`"phase_us":{"candidate_sort":0.25,"memtable_scan":0,"refine":4,"topk_merge":0.125,"tree_walk":1.5}}}`},
		{"search with no neighbours",
			SearchResponse{Results: []Result{}},
			`{"results":[]}`},
		{"partial search",
			SearchResponse{Results: goldenResults[:1], Stats: partial},
			`{"results":[{"id":42,"dist":0}],"stats":{"candidates":12,"tree_entries":512,` +
				`"page_reads":9,"page_hits":30,"page_misses":9,"exact_distances":12,"memtable_scanned":3,` +
				`"alpha":64,"beta":64,"gamma":16,"ptolemaic":true,"degraded":true,"partial_shards":[1]}}`},
		{"searchbatch",
			SearchBatchResponse{Results: [][]Result{goldenResults[:1], {}}},
			`{"results":[[{"id":42,"dist":0}],[]]}`},
		{"partial searchbatch with stats",
			SearchBatchResponse{Results: [][]Result{goldenResults[:1]},
				Stats: []*QueryStats{partial}, PartialShards: []int{1}},
			`{"results":[[{"id":42,"dist":0}]],"stats":[{"candidates":12,"tree_entries":512,` +
				`"page_reads":9,"page_hits":30,"page_misses":9,"exact_distances":12,"memtable_scanned":3,` +
				`"alpha":64,"beta":64,"gamma":16,"ptolemaic":true,"degraded":true,"partial_shards":[1]}],"partial_shards":[1]}`},
		{"healthz of a standalone index",
			Healthz{Status: "ok", Count: 100, Dim: 128},
			`{"status":"ok","count":100,"dim":128}`},
		{"forwarded search request",
			SearchRequest{Query: []float32{0.5, 1}, K: 10, Stats: true, Tuning: Tuning{SearchOptions: core.SearchOptions{Alpha: 64}, Preset: "fast"}},
			`{"query":[0.5,1],"k":10,"stats":true,"alpha":64,"preset":"fast"}`},
		{"forwarded search request with every tuning field",
			SearchRequest{Query: []float32{1, 2}, K: 3, TimeoutMs: 5, Stats: true, Tuning: Tuning{
				SearchOptions: core.SearchOptions{Alpha: 8, Beta: 6, Gamma: 4, MaxCandidates: 9, Ptolemaic: new(bool)},
				Preset:        "x"}},
			`{"query":[1,2],"k":3,"timeout_ms":5,"stats":true,"alpha":8,"gamma":4,"max_candidates":9,"ptolemaic":false,"preset":"x"}`},
		{"forwarded batch request",
			SearchBatchRequest{Queries: [][]float32{{0.5, 1}}, K: 10, TimeoutMs: 250, Tuning: Tuning{SearchOptions: core.SearchOptions{MaxCandidates: 40}}},
			`{"queries":[[0.5,1]],"k":10,"timeout_ms":250,"max_candidates":40}`},
	}
}

// TestGoldenResponses pins the exact bytes of every search response
// shape: a renamed field, a reordered one or a lost omitempty fails
// here instead of in a client.
func TestGoldenResponses(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			WriteJSON(rec, http.StatusOK, tc.v)
			if got := rec.Body.String(); got != tc.want+"\n" {
				t.Errorf("wire bytes\n got: %s want: %s", got, tc.want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
		})
	}
}

// TestGoldenErrors pins the status and exact body of each error class
// (the encoder's HTML escaping of < and > included).
func TestGoldenErrors(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		want   string
	}{
		{"uncoded 400", ValidateK(0, 1000), 400,
			`{"error":"k must be \u003e= 1, got 0"}`},
		{"dim_mismatch from validation", ValidateQuery("query", []float32{1, 2}, 4), 400,
			`{"error":"query has 2 dims, index has 4","code":"dim_mismatch"}`},
		{"dim_mismatch from the index", fmt.Errorf("%w: query has 2 dims, index has 4", core.ErrDimMismatch), 400,
			`{"error":"` + core.ErrDimMismatch.Error() + `: query has 2 dims, index has 4","code":"dim_mismatch"}`},
		{"bad_options from validation", core.SearchOptions{Gamma: -1}.Validate(), 400,
			`{"error":"` + core.ErrBadOptions.Error() + `: gamma must be \u003e= 0, got -1","code":"bad_options"}`},
		{"bad_options from the index", fmt.Errorf("%w: max_candidates=3 < k=5", core.ErrBadOptions), 400,
			`{"error":"` + core.ErrBadOptions.Error() + `: max_candidates=3 \u003c k=5","code":"bad_options"}`},
		{"bad_vector", fmt.Errorf("%w: its distance to reference 2 is +Inf", core.ErrBadVector), 400,
			`{"error":"` + core.ErrBadVector.Error() + `: its distance to reference 2 is +Inf","code":"bad_vector"}`},
		{"unknown id", fmt.Errorf("%w: delete of id 9 (have 4)", core.ErrUnknownID), 400,
			`{"error":"` + core.ErrUnknownID.Error() + `: delete of id 9 (have 4)"}`},
		{"purged", fmt.Errorf("%w: undelete of id 3", core.ErrPurged), 409,
			`{"error":"` + core.ErrPurged.Error() + `: undelete of id 3","code":"purged"}`},
		{"wal_unavailable", core.ErrWALUnavailable, 503,
			`{"error":"` + core.ErrWALUnavailable.Error() + `","code":"wal_unavailable"}`},
		{"io_error", fmt.Errorf("read page 7: %w", pager.ErrIO), 503,
			`{"error":"read page 7: ` + pager.ErrIO.Error() + `","code":"io_error"}`},
		{"shard_unavailable",
			&Error{Status: http.StatusServiceUnavailable, Code: CodeShardUnavailable, Msg: "all 2 shards unavailable"}, 503,
			`{"error":"all 2 shards unavailable","code":"shard_unavailable"}`},
		{"deadline", context.DeadlineExceeded, 504,
			`{"error":"context deadline exceeded"}`},
		{"client gone", context.Canceled, StatusClientClosedRequest,
			`{"error":"context canceled"}`},
		{"anything else", fmt.Errorf("boom"), 500,
			`{"error":"boom"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			WriteError(rec, tc.err)
			if rec.Code != tc.status {
				t.Errorf("status %d, want %d", rec.Code, tc.status)
			}
			if got := rec.Body.String(); got != tc.want+"\n" {
				t.Errorf("wire bytes\n got: %s want: %s", got, tc.want)
			}
		})
	}
}

// A stats block must survive wire -> core -> wire unchanged: that is
// what lets a coordinator merge shard replies with the in-process merge
// and stay bit-identical to it. Phases travel as microseconds and must
// come back to the nanosecond; a phase too long to do so is refused.
func TestStatsRoundTrip(t *testing.T) {
	odd := *goldenStats
	odd.Phases = telemetry.PhaseNS{1, 999_999_999_937, 3, 123_456_789, 7}
	for _, st := range []*core.QueryStats{goldenStats, &odd, {}} {
		wire, err := json.Marshal(&QueryStats{QueryStats: *st})
		if err != nil {
			t.Fatal(err)
		}
		var decoded QueryStats
		if err := json.Unmarshal(wire, &decoded); err != nil {
			t.Fatal(err)
		}
		if decoded.QueryStats != *st {
			t.Errorf("round trip\n got: %+v\nwant: %+v", decoded.QueryStats, *st)
		}
		again, err := json.Marshal(&decoded)
		if err != nil || string(again) != string(wire) {
			t.Errorf("re-encoded %s (err %v), want %s", again, err, wire)
		}
	}
	var decoded QueryStats
	if err := json.Unmarshal([]byte(`{"phase_us":{"refine":4.471709163065188e+12}}`), &decoded); err == nil {
		t.Errorf("a 52-day phase decoded to %v, want an error", decoded.Phases)
	}
}

func TestDecodeBody(t *testing.T) {
	decode := func(body string, limit int64) (SearchRequest, error) {
		r := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(body))
		if limit > 0 {
			r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, limit)
		}
		var req SearchRequest
		return req, DecodeBody(r, &req)
	}
	on := true
	req, err := decode(`{"query":[1,2],"k":3,"timeout_ms":5,"stats":true,"alpha":8,"gamma":4,"max_candidates":9,"ptolemaic":true,"preset":"x"}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := SearchRequest{Query: []float32{1, 2}, K: 3, TimeoutMs: 5, Stats: true,
		Tuning: Tuning{SearchOptions: core.SearchOptions{Alpha: 8, Gamma: 4, MaxCandidates: 9, Ptolemaic: &on}, Preset: "x"}}
	if !reflect.DeepEqual(req, want) {
		t.Errorf("decoded %+v, want %+v", req, want)
	}
	for name, tc := range map[string]struct {
		body   string
		limit  int64
		status int
	}{
		"unknown field": {`{"k":1,"wat":true}`, 0, 400},
		"trailing data": {`{"k":1} {"k":2}`, 0, 400},
		"malformed":     {`{"k":`, 0, 400},
		"over the cap":  {`{"query":[1,2,3,4,5,6,7,8,9,10],"k":1}`, 16, 413},
		"beta":          {`{"k":1,"beta":8}`, 0, 400},
		"degrade":       {`{"k":1,"degrade":true}`, 0, 400},
	} {
		_, err := decode(tc.body, tc.limit)
		var e *Error
		if !errors.As(err, &e) || e.Status != tc.status {
			t.Errorf("%s: err = %v, want an *Error with status %d", name, err, tc.status)
		}
	}
}

func TestValidateQueries(t *testing.T) {
	ok := [][]float32{{1, 2}, {3, 4}}
	if err := ValidateQueries(ok, 2, 2); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		queries [][]float32
		want    string
	}{
		"empty batch":     {nil, "queries must be non-empty"},
		"over the cap":    {[][]float32{{1, 2}, {3, 4}, {5, 6}}, "exceeds the server limit 2"},
		"empty query":     {[][]float32{{1, 2}, {}}, "queries[1] must be non-empty"},
		"wrong dimension": {[][]float32{{1, 2}, {3}}, "queries[1] has 1 dims, index has 2"},
	} {
		if err := ValidateQueries(tc.queries, 2, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", name, err, tc.want)
		}
	}
}

func TestTimeout(t *testing.T) {
	for ms, want := range map[int]int64{0: 0, -5: 0, 250: 250e6, 1 << 62: 0} {
		if got := Timeout(ms); int64(got) != want {
			t.Errorf("Timeout(%d) = %v, want %dns", ms, got, want)
		}
	}
}

// TestDeadline pins the one deadline rule: the default, lowered but
// never raised by timeout_ms, and no deadline when both are 0.
func TestDeadline(t *testing.T) {
	for _, tc := range []struct {
		def       time.Duration
		timeoutMs int
		want      time.Duration // 0: no deadline
	}{
		{0, 0, 0},
		{0, 250, 250 * time.Millisecond},
		{time.Second, 0, time.Second},
		{time.Second, 250, 250 * time.Millisecond},
		{time.Second, 5000, time.Second},
	} {
		ctx, cancel := Deadline(httptest.NewRequest(http.MethodPost, "/search", nil), tc.def, tc.timeoutMs)
		dl, ok := ctx.Deadline()
		cancel()
		if ok != (tc.want > 0) {
			t.Errorf("Deadline(%v, %d): has deadline %v, want %v", tc.def, tc.timeoutMs, ok, tc.want > 0)
			continue
		}
		if left := time.Until(dl); ok && (left > tc.want || left < tc.want/2) {
			t.Errorf("Deadline(%v, %d): %v left, want about %v", tc.def, tc.timeoutMs, left, tc.want)
		}
	}
}

// TestWriteErrorAdmission pins the admission mapping: a shed is a 503
// and a tenant throttle a 429, each coded and with a Retry-After of
// whole seconds, rounded up and never 0.
func TestWriteErrorAdmission(t *testing.T) {
	for _, tc := range []struct {
		err    *admission.Error
		status int
		retry  string
	}{
		{&admission.Error{Code: admission.CodeOverloaded}, http.StatusServiceUnavailable, "1"},
		{&admission.Error{Code: admission.CodeTenantThrottled, RetryAfter: 1500 * time.Millisecond}, http.StatusTooManyRequests, "2"},
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, fmt.Errorf("search: %w", tc.err))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.err.Code, rec.Code, tc.status)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retry {
			t.Errorf("%s: Retry-After %q, want %q", tc.err.Code, got, tc.retry)
		}
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Code != tc.err.Code {
			t.Errorf("%s: body %s (err %v)", tc.err.Code, rec.Body, err)
		}
	}
}

// lazyBody is an n-byte request body produced on demand, so a test can
// send one past MaxBodyBytes without holding it.
type lazyBody struct{ n int64 }

func (b *lazyBody) Read(p []byte) (int, error) {
	if b.n == 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), b.n)]
	clear(p)
	b.n -= int64(len(p))
	return len(p), nil
}

// TestHandleBodyCap drives Handle with a body of MaxBodyBytes and one
// of MaxBodyBytes + 1: the first is read whole, the second is a 413
// with the structured body. Both carry Server-Timing. The handler drains
// the body without buffering it and classifies the read error as
// DecodeBody does.
func TestHandleBodyCap(t *testing.T) {
	h := Handle(nil, func(r *http.Request) (any, error) {
		n, err := io.Copy(io.Discard, r.Body)
		if err != nil {
			return nil, bodyError(err)
		}
		return map[string]int64{"read": n}, nil
	})
	for _, tc := range []struct {
		size   int64
		status int
		want   string
	}{
		{MaxBodyBytes, http.StatusOK, fmt.Sprintf(`{"read":%d}`, MaxBodyBytes)},
		{MaxBodyBytes + 1, http.StatusRequestEntityTooLarge, fmt.Sprintf(`{"error":"request body exceeds %d bytes"}`, MaxBodyBytes)},
	} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodPost, "/search", &lazyBody{n: tc.size}))
		if rec.Code != tc.status || rec.Body.String() != tc.want+"\n" {
			t.Errorf("%d-byte body: %d %s, want %d %s", tc.size, rec.Code, rec.Body, tc.status, tc.want)
		}
		if st := rec.Header().Get("Server-Timing"); !strings.HasPrefix(st, "total;dur=") {
			t.Errorf("%d-byte body: Server-Timing %q", tc.size, st)
		}
	}
}

// FuzzSearchRequest feeds an arbitrary body through the request path a
// server runs before it touches the index: DecodeBody into the /search
// and the /searchbatch request, then ValidateK, ValidateQuery or
// ValidateQueries, and SearchOptions.Validate, at the default caps.
// Nothing may panic, every rejection must render as a 400, and a body
// that passes
// every check asks for k in [1, DefaultMaxK] of at most DefaultMaxBatch
// queries of the declared dimensionality, and survives the
// coordinator's re-encoding unchanged. Seeded from the request bodies
// of the golden and decoder tests, the Ptolemaic tri-state's false and
// null, and the keys the wire does not carry.
func FuzzSearchRequest(f *testing.F) {
	for _, body := range []string{
		`{"query":[0.5,1],"k":10,"stats":true,"alpha":64,"preset":"fast"}`,
		`{"queries":[[0.5,1]],"k":10,"timeout_ms":250,"max_candidates":40}`,
		`{"query":[1,2],"k":3,"timeout_ms":5,"stats":true,"alpha":8,"gamma":4,"max_candidates":9,"ptolemaic":true,"preset":"x"}`,
		`{"k":1,"wat":true}`,
		`{"k":1} {"k":2}`,
		`{"k":`,
		`{"query":[1,2,3,4,5,6,7,8,9,10],"k":1}`,
		`{"query":[1,2],"k":3,"ptolemaic":false}`,
		`{"query":[1,2],"k":3,"ptolemaic":null}`,
		`{"query":[1,2],"k":3,"beta":8}`,
		`{"query":[1,2],"k":3,"degrade":true}`,
	} {
		f.Add([]byte(body))
	}
	const dim = 2
	f.Fuzz(func(t *testing.T, body []byte) {
		decode := func(v any) error {
			r := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(string(body)))
			r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, MaxBodyBytes)
			return DecodeBody(r, v)
		}
		rejected := func(err error) bool {
			if err == nil {
				return false
			}
			rec := httptest.NewRecorder()
			if WriteError(rec, err); rec.Code != http.StatusBadRequest {
				t.Fatalf("rejection %v renders as a %d, not a 400", err, rec.Code)
			}
			return true
		}
		roundTrips := func(v, decoded any) {
			wire, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("re-encoding %+v: %v", v, err)
			}
			if err := json.Unmarshal(wire, decoded); err != nil {
				t.Fatalf("decoding the re-encoded %s: %v", wire, err)
			}
		}

		var one SearchRequest
		if !rejected(decode(&one)) && !rejected(ValidateK(one.K, 0)) &&
			!rejected(ValidateQuery("query", one.Query, dim)) && !rejected(one.SearchOptions.Validate()) {
			if one.K < 1 || one.K > DefaultMaxK || len(one.Query) != dim {
				t.Fatalf("accepted k %d with a %d-d query", one.K, len(one.Query))
			}
			var again SearchRequest
			if roundTrips(one, &again); !reflect.DeepEqual(again, one) {
				t.Fatalf("re-encoding changed %+v into %+v", one, again)
			}
		}

		var batch SearchBatchRequest
		if !rejected(decode(&batch)) && !rejected(ValidateK(batch.K, 0)) &&
			!rejected(ValidateQueries(batch.Queries, 0, dim)) && !rejected(batch.SearchOptions.Validate()) {
			if batch.K < 1 || batch.K > DefaultMaxK || len(batch.Queries) < 1 || len(batch.Queries) > DefaultMaxBatch {
				t.Fatalf("accepted k %d with %d queries", batch.K, len(batch.Queries))
			}
			for i, q := range batch.Queries {
				if len(q) != dim {
					t.Fatalf("accepted a %d-d query %d", len(q), i)
				}
			}
			var again SearchBatchRequest
			if roundTrips(batch, &again); !reflect.DeepEqual(again, batch) {
				t.Fatalf("re-encoding changed %+v into %+v", batch, again)
			}
		}
	})
}

// FuzzSearchResponse feeds arbitrary bytes to the decoding a coordinator
// runs on a shard server's reply: a /search and a /searchbatch response,
// decoded without the request decoder's strictness. Nothing may panic,
// and whatever decodes must survive re-encoding and decoding again
// unchanged — the phase block to the nanosecond — but for the empty
// lists the encoder omits, which come back nil. Seeded from the golden
// wire bytes and a phase too long to come back to the nanosecond.
func FuzzSearchResponse(f *testing.F) {
	for _, tc := range goldenCases() {
		f.Add([]byte(tc.want))
	}
	f.Add([]byte(`{"results":[],"stats":{"phase_us":{"refine":4.471709163065188e+12}}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		roundTrips := func(v, again any) {
			wire, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("re-encoding %+v: %v", v, err)
			}
			if err := json.Unmarshal(wire, again); err != nil {
				t.Fatalf("decoding the re-encoded %s: %v", wire, err)
			}
		}
		show := func(v any) string {
			wire, _ := json.Marshal(v)
			return string(wire)
		}
		omitted := func(st *QueryStats) {
			if st != nil && len(st.PartialShards) == 0 {
				st.PartialShards = nil
			}
		}

		var one SearchResponse
		if json.Unmarshal(body, &one) == nil {
			var again SearchResponse
			roundTrips(one, &again)
			omitted(one.Stats)
			if !reflect.DeepEqual(again, one) {
				t.Fatalf("re-encoding changed %s into %s", show(one), show(again))
			}
		}

		var batch SearchBatchResponse
		if json.Unmarshal(body, &batch) == nil {
			var again SearchBatchResponse
			roundTrips(batch, &again)
			for _, st := range batch.Stats {
				omitted(st)
			}
			if len(batch.Stats) == 0 {
				batch.Stats = nil
			}
			if len(batch.PartialShards) == 0 {
				batch.PartialShards = nil
			}
			if !reflect.DeepEqual(again, batch) {
				t.Fatalf("re-encoding changed %s into %s", show(batch), show(again))
			}
		}
	})
}
