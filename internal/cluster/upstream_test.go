package cluster

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"github.com/hd-index/hdindex/internal/api"
)

// FuzzUpstreamError feeds a shard server's 4xx (status, body) through
// upstreamError and renders the result with api.WriteError, as the
// coordinator relays it. Nothing may panic, the status must come back
// unchanged, and a body that api.WriteJSON rendered from an ErrorBody —
// every shard server's error body — must come back byte for byte.
// Seeded with the error bodies of TestPermanentErrorPropagates and
// TestClusterPresetWithKnobsRelayed, and a non-JSON body.
func FuzzUpstreamError(f *testing.F) {
	for _, body := range []string{
		`{"error":"alpha must be >= 0, got -1","code":"bad_options"}`,
		`{"error":"preset \"fast\" cannot be combined with explicit tuning knobs","code":"bad_options"}` + "\n",
		"boom\n",
	} {
		f.Add(400, []byte(body))
	}
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		status = 400 + int(uint(status)%100)
		relay := func(body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			api.WriteError(rec, upstreamError(status, body))
			return rec
		}
		if rec := relay(body); rec.Code != status {
			t.Fatalf("status %d relayed as %d (body %q)", status, rec.Code, body)
		}
		var eb api.ErrorBody
		if json.Unmarshal(body, &eb) != nil {
			return
		}
		rec := httptest.NewRecorder()
		api.WriteJSON(rec, status, eb)
		shard := rec.Body.Bytes()
		if got := relay(shard).Body.Bytes(); !bytes.Equal(got, shard) {
			t.Fatalf("error body not relayed byte for byte\nshard: %q\nrelay: %q", shard, got)
		}
	})
}
