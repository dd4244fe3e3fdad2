package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/admission"
	"github.com/hd-index/hdindex/internal/api"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/fanout"
	"github.com/hd-index/hdindex/internal/iofault"
	"github.com/hd-index/hdindex/internal/leakcheck"
)

// postTenant is post with an X-Tenant header and access to the raw
// response (status, headers, decoded error body).
func postTenant(t testing.TB, url, tenant string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeErrorBody(t testing.TB, resp *http.Response) api.ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	var eb api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	return eb
}

// serverDuration reads the server-side request duration from the
// Server-Timing header. On a loaded (possibly single-core) box the
// client goroutine may not be scheduled for tens of milliseconds after
// the server finished, so client-observed wall time measures the Go
// scheduler, not the server; the header measures the server.
func serverDuration(t testing.TB, resp *http.Response) time.Duration {
	t.Helper()
	st := resp.Header.Get("Server-Timing")
	i := strings.Index(st, "dur=")
	if i < 0 {
		t.Fatalf("response has no Server-Timing duration (header %q)", st)
	}
	val := st[i+4:]
	if j := strings.IndexAny(val, ";, "); j >= 0 {
		val = val[:j]
	}
	ms, err := strconv.ParseFloat(val, 64)
	if err != nil {
		t.Fatalf("bad Server-Timing %q: %v", st, err)
	}
	return time.Duration(ms * float64(time.Millisecond))
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

func getHealth(t testing.TB, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body.Status
}

// TestFaultWALFailureReadOnlyServing poisons the WAL's fsync under a
// live server: the failing insert and everything after it must come
// back 503/wal_unavailable, /healthz must say read_only (still 200 —
// the instance can serve reads), searches must keep answering, and
// /stats must carry the failure.
func TestFaultWALFailureReadOnlyServing(t *testing.T) {
	ds := data.Generate(data.Config{Name: "t", N: 800, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 52})
	dir := t.TempDir()
	idx, err := hdindex.Build(dir, ds.Vectors, hdindex.Options{
		Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	// Every WAL fsync fails from here; reopen so the log is wrapped.
	restore := iofault.SetGlobal(iofault.NewInjector(iofault.Rule{
		PathGlob: "wal.log", Op: iofault.OpSync,
	}))
	defer restore()
	idx, err = hdindex.Open(dir, hdindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	t.Cleanup(ts.Close)

	resp := postTenant(t, ts.URL+"/insert", "", insertRequest{Vector: ds.Vectors[0]})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert with poisoned WAL: status %d, want 503", resp.StatusCode)
	}
	if eb := decodeErrorBody(t, resp); eb.Code != api.CodeWALUnavailable {
		t.Fatalf("insert error code %q, want %q", eb.Code, api.CodeWALUnavailable)
	}
	// Sticky: the next write fails the same way without touching disk.
	resp = postTenant(t, ts.URL+"/delete", "", deleteRequest{ID: 0})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delete after poison: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	if code, status := getHealth(t, ts.URL); code != 200 || status != "read_only" {
		t.Fatalf("healthz = %d %q, want 200 read_only", code, status)
	}
	q := ds.PerturbedQueries(1, 0.02, 3)[0]
	if code := post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 5}, nil); code != 200 {
		t.Fatalf("search while read-only: status %d, want 200", code)
	}
	var st StatsResponse
	if err := getJSON(ts.URL+"/stats", &st); err != nil {
		t.Fatal(err)
	}
	if !st.Index.WAL.WALFailed {
		t.Fatal("/stats must report wal_failed")
	}
	if st.Health != "read_only" {
		t.Fatalf("/stats health = %q, want read_only", st.Health)
	}
}

// TestOverloadStormShedsFast floods a 1-slot server far past its
// sustainable rate: excess requests must be shed immediately with a
// structured 503 + Retry-After (well under the 50ms budget), accepted
// requests must succeed with a p99 within 3× the unloaded p99 (the
// deadline-aware queue sheds what it cannot serve in time), and
// sustained pressure must flip unpinned queries onto the degraded
// cascade (echoed in stats). Latencies are measured server-side via
// Server-Timing; the two latency assertions run only under HD_CHAOS
// (`make chaos`), the counting ones always.
func TestOverloadStormShedsFast(t *testing.T) {
	ds := data.Generate(data.Config{Name: "t", N: 1500, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 42})
	idx, err := hdindex.Build(t.TempDir(), ds.Vectors, hdindex.Options{
		Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	// Holding one CPU place in the engine's count keeps the admitted
	// batch from recruiting a helper onto every core: shedding is only
	// "immediate" if the shed path can get CPU while admitted work runs,
	// which is exactly the property under test.
	_, leave := fanout.Enter(context.Background())
	t.Cleanup(leave)
	ts := httptest.NewServer(New(idx, Config{Admission: admission.Config{
		MaxInflight: 1,
		MaxQueue:    4,
		// Degrade at the faintest pressure so the storm provably crosses it.
		DegradePressure: 1e-9,
	}}).Handler())
	t.Cleanup(ts.Close)
	// Batches, not single searches: each request carries enough work
	// that server time dominates client round-trip time, so the 16-way
	// fan-in genuinely stacks up against the 1-slot limiter instead of
	// draining between arrivals.
	queries := ds.PerturbedQueries(24, 0.02, 7)
	req := api.SearchBatchRequest{Queries: queries, K: 5, Stats: true}

	// Unloaded baseline: the same request shape, sequentially, with no
	// contention. The max over the warm runs stands in for the p99 the
	// storm's accepted tail is judged against.
	var unloadedP99 time.Duration
	for i := 0; i < 12; i++ {
		resp := postTenant(t, ts.URL+"/searchbatch", "", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("unloaded request: status %d, want 200", resp.StatusCode)
		}
		d := serverDuration(t, resp)
		resp.Body.Close()
		if i > 0 && d > unloadedP99 { // skip the cold first request
			unloadedP99 = d
		}
	}

	// Every storm request carries a deadline of 2.5× the unloaded p99:
	// the deadline-aware queue must shed requests it cannot serve in
	// time, which is what keeps the accepted tail within the 3× budget
	// below instead of absorbing the whole queue.
	req.TimeoutMs = int(max(unloadedP99*5/2/time.Millisecond, 1))

	shedBudget := 50 * time.Millisecond
	if raceEnabled {
		shedBudget = 500 * time.Millisecond
	}
	var accepted, shed, timedOut, degraded, other atomic.Int64
	var slowShed atomic.Int64
	var mu sync.Mutex
	var okLat []time.Duration
	var wg sync.WaitGroup
	stop := time.Now().Add(800 * time.Millisecond)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				resp := postTenant(t, ts.URL+"/searchbatch", "", req)
				srvLatency := serverDuration(t, resp)
				switch resp.StatusCode {
				case http.StatusOK:
					accepted.Add(1)
					mu.Lock()
					okLat = append(okLat, srvLatency)
					mu.Unlock()
					var sr api.SearchBatchResponse
					if json.NewDecoder(resp.Body).Decode(&sr) == nil {
						for _, st := range sr.Stats {
							if st != nil && st.Degraded {
								degraded.Add(1)
								break
							}
						}
					}
					resp.Body.Close()
				case http.StatusServiceUnavailable:
					shed.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						other.Add(1) // shed without a hint counts as a failure
					}
					if srvLatency > shedBudget {
						slowShed.Add(1)
					}
					resp.Body.Close()
				case http.StatusGatewayTimeout:
					// Admitted, then the deadline fired mid-execution:
					// allowed, the request neither succeeded nor queued.
					timedOut.Add(1)
					resp.Body.Close()
				default:
					other.Add(1)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	t.Logf("storm: accepted=%d shed=%d timed_out=%d degraded=%d other=%d unloaded_p99=%v timeout_ms=%d",
		accepted.Load(), shed.Load(), timedOut.Load(), degraded.Load(), other.Load(), unloadedP99, req.TimeoutMs)
	if accepted.Load() == 0 {
		t.Fatal("storm starved every request; admission must keep accepting at capacity")
	}
	if shed.Load() == 0 {
		t.Fatal("16-way storm against 1 slot + queue of 4 must shed")
	}
	if other.Load() != 0 {
		t.Fatalf("%d responses were neither clean 200s nor well-formed 503 sheds", other.Load())
	}
	if degraded.Load() == 0 {
		t.Fatal("sustained pressure never produced a degraded-cascade response")
	}

	var st StatsResponse
	if err := getJSON(ts.URL+"/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil {
		t.Fatal("/stats must carry the admission block when admission is on")
	}
	if st.Admission.Accepted == 0 || st.Admission.ShedOverload == 0 {
		t.Fatalf("admission counters: %+v", st.Admission)
	}

	// The two wall-clock properties depend on what else the machine is
	// doing, so tier-1 stops at the counts above; `make chaos` sets
	// HD_CHAOS and runs them.
	if os.Getenv("HD_CHAOS") == "" {
		t.Log("HD_CHAOS unset: skipping the shed-latency and accepted-p99 assertions (make chaos runs them)")
		return
	}
	// Shedding must not queue: the decision itself is lock-then-return.
	// Server-side time still includes the request decode and possible
	// scheduler preemption while admitted batches burn the CPU (this box
	// may be single-core), so bound the overwhelming majority rather
	// than the worst straggler.
	if slow, total := slowShed.Load(), shed.Load(); slow*10 > total {
		t.Fatalf("%d of %d shed responses took longer than %v; shedding must not queue", slow, total, shedBudget)
	}
	// Accepted requests must not have absorbed the queue: their p99 stays
	// within 3× the unloaded p99 because the deadline-aware queue shed
	// (or expired) everything that could not be served in time.
	slices.Sort(okLat)
	acceptedP99 := okLat[(len(okLat)*99+99)/100-1]
	if budget := 3 * unloadedP99; acceptedP99 > budget {
		t.Fatalf("accepted p99 %v exceeds 3× the unloaded p99 (%v); the queue must not grow the accepted tail", acceptedP99, unloadedP99)
	}
}

// TestOverloadTenantThrottled exhausts one tenant's token bucket: the
// over-budget tenant gets 429 + Retry-After while another tenant is
// untouched.
func TestOverloadTenantThrottled(t *testing.T) {
	ts, _, ds := newTestServer(t, Config{Admission: admission.Config{TenantRPS: 0.1, TenantBurst: 1}})
	q := ds.PerturbedQueries(1, 0.02, 8)[0]
	req := api.SearchRequest{Query: q, K: 5}

	resp := postTenant(t, ts.URL+"/search", "alice", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice's first request: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postTenant(t, ts.URL+"/search", "alice", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over budget: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if eb := decodeErrorBody(t, resp); eb.Code != "tenant_throttled" {
		t.Fatalf("throttle code %q, want tenant_throttled", eb.Code)
	}

	resp = postTenant(t, ts.URL+"/search", "bob", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob (fresh bucket): status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestChaosServerShutdownNoLeak runs a full server lifecycle — build,
// serve traffic with admission on, drain, close — and asserts every
// goroutine is reaped.
func TestChaosServerShutdownNoLeak(t *testing.T) {
	defer leakcheck.Check(t)()
	ds := data.Generate(data.Config{Name: "t", N: 600, Dim: 32, Clusters: 4, Lo: 0, Hi: 1, Seed: 53})
	idx, err := hdindex.Build(t.TempDir(), ds.Vectors, hdindex.Options{
		Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, Config{Admission: admission.Config{MaxInflight: 4, TenantRPS: 100}})
	ts := httptest.NewServer(srv.Handler())
	q := ds.PerturbedQueries(1, 0.02, 9)[0]
	for i := 0; i < 5; i++ {
		if code := post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 3}, nil); code != 200 {
			t.Fatalf("search status %d", code)
		}
	}
	if _, err := idx.Insert(ds.Vectors[0]); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
}
