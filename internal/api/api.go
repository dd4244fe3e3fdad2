// Package api is the wire schema of the search endpoints and the HTTP
// edge that serves them. The schema is the JSON request, response and
// error types of /search, /searchbatch and /healthz, the strict body
// decoder, and the request checks that need no index. The edge is the
// handler wrapper both front ends mount (Handle: body cap, timing,
// Server-Timing, rendering), the one mapping from an error to a status
// and a body (WriteError), and the one deadline rule (Deadline). A
// shard server (internal/server) and the cluster coordinator
// (internal/cluster) speak it to clients and to each other, so a field
// is accepted, rejected or omitted, and an error mapped to a status, in
// exactly one place.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/hd-index/hdindex/internal/admission"
	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/shard"
)

// Tuning is the per-request filter-cascade override block shared by
// /search and /searchbatch: core's SearchOptions, whose JSON keys are
// the wire's, and a quality preset. Unset knobs inherit the index's
// built parameters; "ptolemaic" is a JSON tri-state (absent = built
// default). "preset" names a quality preset instead of spelling knobs
// out; the two ways are mutually exclusive.
type Tuning struct {
	core.SearchOptions
	Preset string `json:"preset,omitempty"`
}

// HasKnobs reports whether the request spelled out any explicit
// cascade override.
func (t Tuning) HasKnobs() bool { return t.SearchOptions != core.SearchOptions{} }

// SearchRequest is the /search body. The coordinator forwards it to
// every shard server re-encoded, which is why absent fields are
// omitted.
type SearchRequest struct {
	Query     []float32 `json:"query,omitempty"`
	K         int       `json:"k"`
	TimeoutMs int       `json:"timeout_ms,omitempty"`
	Stats     bool      `json:"stats,omitempty"`
	Tuning
}

// SearchBatchRequest is the /searchbatch body.
type SearchBatchRequest struct {
	Queries   [][]float32 `json:"queries,omitempty"`
	K         int         `json:"k"`
	TimeoutMs int         `json:"timeout_ms,omitempty"`
	Stats     bool        `json:"stats,omitempty"`
	Tuning
}

// Result is one neighbour in a search response: core's own type, which
// carries the wire's keys.
type Result = core.Result

// QueryStats is one query's stats block: core's, whose keys and field
// order are the wire's, plus the coordinator's completeness report.
type QueryStats struct {
	core.QueryStats
	// PartialShards lists the ordinals that contributed nothing to this
	// answer (every replica exhausted). Only a coordinator sets it, and
	// only on partial answers.
	PartialShards []int `json:"partial_shards,omitempty"`
}

// SearchResponse is the /search reply.
type SearchResponse struct {
	Results []Result    `json:"results"`
	Stats   *QueryStats `json:"stats,omitempty"`
}

// SearchBatchResponse is the /searchbatch reply.
type SearchBatchResponse struct {
	Results [][]Result `json:"results"`
	// Stats holds one entry per query, in input order, when the request
	// set "stats": true.
	Stats []*QueryStats `json:"stats,omitempty"`
	// PartialShards is a coordinator's batch-level completeness report:
	// the ordinals missing from every answer in the batch (a shard
	// fails for the whole sub-batch or not at all).
	PartialShards []int `json:"partial_shards,omitempty"`
}

// Healthz is a shard server's /healthz payload. Beyond the liveness
// status it carries enough identity for a cluster coordinator's startup
// check: the vector count and dimensionality always, and the shard
// identity stamp when the served directory is one shard of a sharded
// build.
type Healthz struct {
	Status string `json:"status"`
	Count  uint64 `json:"count"`
	Dim    int    `json:"dim"`
	// Identity names which shard of which sharded build this server
	// holds; absent for standalone indexes.
	Identity *shard.Identity `json:"identity,omitempty"`
}

// Machine-readable error classes of the structured error body (the
// admission layer's "overloaded" and "tenant_throttled" are its own
// constants; WriteError maps them too):
//
//	dim_mismatch      -> 400 (query or vector of the wrong dimensionality)
//	bad_options       -> 400 (a cascade that cannot be formed, unknown preset, preset + knobs)
//	bad_vector        -> 400 (an insert whose distance to a reference object overflows float32)
//	purged            -> 409 (undelete of an id whose deletion a compaction reclaimed)
//	wal_unavailable   -> 503 (WAL failed; index read-only, reads keep serving)
//	io_error          -> 503 (disk I/O failure in the page layer)
//	shard_unavailable -> 503 (coordinator: a shard exhausted every replica
//	                     and the request's completeness policy allowed no partial answer)
const (
	CodeDimMismatch      = "dim_mismatch"
	CodeBadOptions       = "bad_options"
	CodeBadVector        = "bad_vector"
	CodePurged           = "purged"
	CodeWALUnavailable   = "wal_unavailable"
	CodeIOError          = "io_error"
	CodeShardUnavailable = "shard_unavailable"
)

// StatusClientClosedRequest is nginx's non-standard 499, used when the
// client cancelled the request before the response was ready.
const StatusClientClosedRequest = 499

// ErrorBody is the structured error response: a human-readable message
// plus, for the error classes a caller can act on, a stable
// machine-readable code.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Error is an error that chose its own HTTP status and (optionally)
// error code.
type Error struct {
	Status int
	Code   string // "code" field of the error body; may be empty
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// BadRequest is a 400 with the given code ("" for none).
func BadRequest(code, format string, args ...any) error {
	return &Error{Status: http.StatusBadRequest, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// WriteJSON writes v as the response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // a failed write means the client is gone
}

// WriteError renders err as a structured error body: the only mapping
// from an error to a status and a body. It classifies the errors every
// endpoint can meet: an *Error's own status, an admission decision, the
// index's typed errors, and the request context's end. Anything else
// is a 500.
func WriteError(w http.ResponseWriter, err error) {
	body := ErrorBody{Error: err.Error()}
	status := http.StatusInternalServerError
	var e *Error
	var ae *admission.Error
	switch {
	case errors.As(err, &e):
		status, body.Code = e.Status, e.Code
	case errors.As(err, &ae):
		// A shed (503) or a tenant throttle (429), with a Retry-After
		// hint rounded up to whole seconds: the header's resolution, and
		// never 0 — a zero would read as "retry immediately" mid-overload.
		status, body.Code = http.StatusServiceUnavailable, ae.Code
		if ae.Code == admission.CodeTenantThrottled {
			status = http.StatusTooManyRequests
		}
		secs := max(int64((ae.RetryAfter+time.Second-1)/time.Second), 1)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	case errors.Is(err, core.ErrDimMismatch):
		status, body.Code = http.StatusBadRequest, CodeDimMismatch
	case errors.Is(err, core.ErrBadOptions):
		status, body.Code = http.StatusBadRequest, CodeBadOptions
	case errors.Is(err, core.ErrBadVector):
		status, body.Code = http.StatusBadRequest, CodeBadVector
	case errors.Is(err, core.ErrUnknownID):
		status = http.StatusBadRequest
	case errors.Is(err, core.ErrPurged):
		// The id exists but its vector is gone for good: the request
		// conflicts with the index's state, and retrying cannot help.
		status, body.Code = http.StatusConflict, CodePurged
	case errors.Is(err, core.ErrWALUnavailable):
		// The WAL failed: writes are rejected while reads keep serving.
		// 503 tells the client this is the server's condition, not the
		// request's.
		status, body.Code = http.StatusServiceUnavailable, CodeWALUnavailable
	case errors.Is(err, pager.ErrIO):
		status, body.Code = http.StatusServiceUnavailable, CodeIOError
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log line only.
		status = StatusClientClosedRequest
	}
	WriteJSON(w, status, body)
}

// Handle is the edge both front ends mount on their JSON endpoints. It
// caps the request body at MaxBodyBytes, times h, reports the duration
// and outcome to observe when it is non-nil, sets the Server-Timing
// header, and renders h's result as a 200 or its error through
// WriteError.
func Handle(observe func(d time.Duration, failed bool), h func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		start := time.Now()
		resp, err := h(r)
		elapsed := time.Since(start)
		if observe != nil {
			observe(elapsed, err != nil)
		}
		// Standard Server-Timing header: the server-side duration, queue
		// wait included. Lets clients (and the overload bench) separate
		// server latency from client-side delivery delay.
		w.Header().Set("Server-Timing",
			fmt.Sprintf("total;dur=%.3f", float64(elapsed.Nanoseconds())/1e6))
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// DecodeBody strictly parses the JSON request body into v: unknown
// fields and trailing data are a 400, a body over the reader's cap a
// 413.
func DecodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return bodyError(err)
	}
	if dec.More() {
		return BadRequest("", "invalid request body: trailing data after JSON object")
	}
	return nil
}

// bodyError classifies a failed read of a request body: a 413 past
// the reader's cap, a 400 otherwise.
func bodyError(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &Error{Status: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
	}
	return BadRequest("", "invalid request body: %v", err)
}

// The request caps of a server or coordinator whose configuration
// leaves them unset — the only copy: hdserve's flags default to them
// and ValidateK/ValidateQueries fall back to them. MaxBodyBytes bounds
// every request body (Handle) and, by default, every shard reply a
// coordinator reads, ahead of any decoding.
const (
	DefaultMaxK     = 1000
	DefaultMaxBatch = 4096
	MaxBodyBytes    = 64 << 20
)

// ValidateK checks the requested neighbour count against the server's
// cap (<= 0 means DefaultMaxK).
func ValidateK(k, maxK int) error {
	if maxK <= 0 {
		maxK = DefaultMaxK
	}
	if k < 1 {
		return BadRequest("", "k must be >= 1, got %d", k)
	}
	if k > maxK {
		return BadRequest("", "k = %d exceeds the server limit %d", k, maxK)
	}
	return nil
}

// ValidateQuery checks one vector (the JSON field called name) against
// the indexed dimensionality.
func ValidateQuery(name string, q []float32, dim int) error {
	if len(q) == 0 {
		return BadRequest("", "%s must be non-empty", name)
	}
	if len(q) != dim {
		return BadRequest(CodeDimMismatch, "%s has %d dims, index has %d", name, len(q), dim)
	}
	return nil
}

// ValidateQueries checks a batch: non-empty, within the server's batch
// cap (<= 0 means DefaultMaxBatch), every query of the indexed
// dimensionality.
func ValidateQueries(queries [][]float32, maxBatch, dim int) error {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if len(queries) == 0 {
		return BadRequest("", "queries must be non-empty")
	}
	if len(queries) > maxBatch {
		return BadRequest("", "batch of %d queries exceeds the server limit %d", len(queries), maxBatch)
	}
	for i, q := range queries {
		// Build the field name only on failure: a full-cap batch must
		// not pay per-query formatting just to validate.
		if len(q) != dim {
			return ValidateQuery(fmt.Sprintf("queries[%d]", i), q, dim)
		}
	}
	return nil
}

// Timeout converts a request's timeout_ms into a duration; 0 means
// none. The upper bound is checked before multiplying: an absurd
// timeout_ms would overflow the Duration and could wrap to an arbitrary
// value, either disabling a deadline or imposing a near-zero one.
// Out-of-range values are ignored, like absent.
func Timeout(timeoutMs int) time.Duration {
	if timeoutMs > 0 && int64(timeoutMs) <= int64(math.MaxInt64)/int64(time.Millisecond) {
		return time.Duration(timeoutMs) * time.Millisecond
	}
	return 0
}

// Deadline applies a request's effective deadline: def, lowered (never
// raised) by the request's timeout_ms; 0 means no deadline. A shard
// server passes its configured query timeout, a coordinator 0.
func Deadline(r *http.Request, def time.Duration, timeoutMs int) (context.Context, context.CancelFunc) {
	d := def
	if rd := Timeout(timeoutMs); rd > 0 && (d == 0 || rd < d) {
		d = rd
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return r.Context(), func() {}
}
