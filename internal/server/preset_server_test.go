package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/admission"
	"github.com/hd-index/hdindex/internal/api"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/slo"
)

// The test index is built with α=128, γ=32, so the preset table
// resolves to: fast = 64/16, balanced = 128/32, exact = 512/512.

// A "preset" request must be bit-identical to the same request with
// the preset's knobs spelled out — same IDs, same distances, same work
// counters — and the stats block must echo the resolved preset.
func TestSearchPresetBitIdentical(t *testing.T) {
	ts, idx, ds := newTestServer(t, Config{})
	q := ds.PerturbedQueries(1, 0.02, 21)[0]

	var viaPreset, viaKnobs api.SearchResponse
	req := api.SearchRequest{Query: q, K: 5, Stats: true, Tuning: api.Tuning{Preset: "fast"}}
	if code := post(t, ts.URL+"/search", req, &viaPreset); code != 200 {
		t.Fatalf("preset request: status %d", code)
	}
	req = api.SearchRequest{Query: q, K: 5, Stats: true, Tuning: api.Tuning{SearchOptions: hdindex.SearchOptions{Alpha: 64, Gamma: 16}}}
	if code := post(t, ts.URL+"/search", req, &viaKnobs); code != 200 {
		t.Fatalf("explicit request: status %d", code)
	}
	if viaPreset.Stats == nil || viaPreset.Stats.Alpha != 64 || viaPreset.Stats.Gamma != 16 {
		t.Fatalf("fast preset stats echo %+v, want alpha=64 gamma=16", viaPreset.Stats)
	}
	if viaPreset.Stats.Preset != "fast" {
		t.Fatalf("stats echo preset %q, want %q", viaPreset.Stats.Preset, "fast")
	}
	if len(viaPreset.Results) != len(viaKnobs.Results) {
		t.Fatalf("%d results via preset, %d via knobs", len(viaPreset.Results), len(viaKnobs.Results))
	}
	for i := range viaKnobs.Results {
		if viaPreset.Results[i] != viaKnobs.Results[i] {
			t.Fatalf("rank %d: preset %+v, knobs %+v", i, viaPreset.Results[i], viaKnobs.Results[i])
		}
	}
	if viaPreset.Stats.Candidates != viaKnobs.Stats.Candidates {
		t.Fatalf("candidates %d via preset, %d via knobs", viaPreset.Stats.Candidates, viaKnobs.Stats.Candidates)
	}

	// And both match the library's own expansion of the preset.
	fast, err := idx.PresetOptions(hdindex.PresetFast, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.Query(context.Background(), q, 5, hdindex.WithOptions(fast))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		if viaPreset.Results[i].ID != want.Results[i].ID {
			t.Fatalf("rank %d: id %d via server, %d via library", i, viaPreset.Results[i].ID, want.Results[i].ID)
		}
	}

	// The other named presets resolve per the table.
	for _, c := range []struct {
		preset       string
		alpha, gamma int
	}{{"exact", 512, 512}, {"balanced", 128, 32}} {
		var got api.SearchResponse
		req := api.SearchRequest{Query: q, K: 5, Stats: true, Tuning: api.Tuning{Preset: c.preset}}
		if code := post(t, ts.URL+"/search", req, &got); code != 200 {
			t.Fatalf("%s: status %d", c.preset, code)
		}
		if got.Stats.Alpha != c.alpha || got.Stats.Gamma != c.gamma || string(got.Stats.Preset) != c.preset {
			t.Fatalf("%s: stats echo alpha=%d gamma=%d preset=%q, want %d/%d/%q",
				c.preset, got.Stats.Alpha, got.Stats.Gamma, got.Stats.Preset, c.alpha, c.gamma, c.preset)
		}
	}
}

// "preset" and explicit knobs are mutually exclusive, unknown names are
// rejected, and an explicit "auto" behaves like no preset at all.
func TestSearchPresetValidation(t *testing.T) {
	ts, _, ds := newTestServer(t, Config{})
	q := ds.PerturbedQueries(1, 0.02, 22)[0]

	var errResp api.ErrorBody
	req := api.SearchRequest{Query: q, K: 5, Tuning: api.Tuning{Preset: "fast", SearchOptions: hdindex.SearchOptions{Alpha: 64}}}
	if code := post(t, ts.URL+"/search", req, &errResp); code != http.StatusBadRequest {
		t.Fatalf("preset+alpha: status %d, want 400", code)
	}
	if errResp.Code != api.CodeBadOptions {
		t.Fatalf("preset+alpha: code %q, want %q", errResp.Code, api.CodeBadOptions)
	}

	req = api.SearchRequest{Query: q, K: 5, Tuning: api.Tuning{Preset: "turbo"}}
	if code := post(t, ts.URL+"/search", req, &errResp); code != http.StatusBadRequest {
		t.Fatalf("unknown preset: status %d, want 400", code)
	}
	if errResp.Code != api.CodeBadOptions {
		t.Fatalf("unknown preset: code %q, want %q", errResp.Code, api.CodeBadOptions)
	}

	breq := api.SearchBatchRequest{Queries: [][]float32{q}, K: 5,
		Tuning: api.Tuning{Preset: "exact", SearchOptions: hdindex.SearchOptions{Gamma: 16}}}
	if code := post(t, ts.URL+"/searchbatch", breq, &errResp); code != http.StatusBadRequest {
		t.Fatalf("batch preset+gamma: status %d, want 400", code)
	}

	var got api.SearchResponse
	req = api.SearchRequest{Query: q, K: 5, Stats: true, Tuning: api.Tuning{Preset: "auto"}}
	if code := post(t, ts.URL+"/search", req, &got); code != 200 {
		t.Fatalf("auto preset: status %d", code)
	}
	if got.Stats.Alpha != 128 || got.Stats.Gamma != 32 || got.Stats.Preset != "auto" {
		t.Fatalf("auto preset stats echo %+v, want the built cascade 128/32 and preset=auto", got.Stats)
	}
}

func testTiers() *slo.TierConfig {
	return &slo.TierConfig{
		Tiers: map[string]slo.Tier{
			"premium": {Preset: "exact", RPSShare: 1},
			"bulk":    {Preset: "fast", RPSShare: 0.001, BurstShare: 0.0005},
		},
		Tenants: map[string]string{"alice": "premium", "bob": "bulk"},
	}
}

func decodeResp(t testing.TB, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// A tenant with a tier inherits the tier's preset when the request
// names neither a preset nor explicit knobs; the request always wins.
func TestTenantTierPreset(t *testing.T) {
	ts, _, ds := newTestServer(t, Config{Tiers: testTiers()})
	q := ds.PerturbedQueries(1, 0.02, 23)[0]
	plain := api.SearchRequest{Query: q, K: 5, Stats: true}

	cases := []struct {
		tenant       string
		req          api.SearchRequest
		preset       hdindex.Preset
		alpha, gamma int
	}{
		{"alice", plain, "exact", 512, 512},
		{"bob", plain, "fast", 64, 16},
		// No tier mapping and no default tier: the server default (auto,
		// here the built parameters).
		{"carol", plain, "auto", 128, 32},
		{"", plain, "auto", 128, 32},
		// The request's own preset beats the tier's.
		{"alice", api.SearchRequest{Query: q, K: 5, Stats: true,
			Tuning: api.Tuning{Preset: "fast"}}, "fast", 64, 16},
		// Explicit knobs beat the tier too, and echo as auto.
		{"alice", api.SearchRequest{Query: q, K: 5, Stats: true,
			Tuning: api.Tuning{SearchOptions: hdindex.SearchOptions{Alpha: 100}}}, "auto", 100, 32},
	}
	for _, c := range cases {
		resp := postTenant(t, ts.URL+"/search", c.tenant, c.req)
		if resp.StatusCode != 200 {
			resp.Body.Close()
			t.Fatalf("tenant %q: status %d", c.tenant, resp.StatusCode)
		}
		var got api.SearchResponse
		decodeResp(t, resp, &got)
		if got.Stats == nil || got.Stats.Preset != c.preset ||
			got.Stats.Alpha != c.alpha || got.Stats.Gamma != c.gamma {
			t.Fatalf("tenant %q: stats echo %+v, want preset=%q alpha=%d gamma=%d",
				c.tenant, got.Stats, c.preset, c.alpha, c.gamma)
		}
	}
}

// Tier admission shares reach the admission controller: a bulk-tier
// tenant at a thousandth of the base rate is throttled on its second
// immediate request while a premium tenant sails through, and the
// per-tenant breakdown shows up in /stats and /metrics.
func TestTenantTierAdmissionShares(t *testing.T) {
	ts, _, ds := newTestServer(t, Config{Admission: admission.Config{TenantRPS: 1000}, Tiers: testTiers()})
	q := ds.PerturbedQueries(1, 0.02, 24)[0]
	req := api.SearchRequest{Query: q, K: 5}

	for i := 0; i < 3; i++ {
		resp := postTenant(t, ts.URL+"/search", "alice", req)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("premium request %d: status %d", i, resp.StatusCode)
		}
	}
	// bulk: rps 1, burst 1 — the first request drains the bucket.
	resp := postTenant(t, ts.URL+"/search", "bob", req)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("first bulk request: status %d", resp.StatusCode)
	}
	resp = postTenant(t, ts.URL+"/search", "bob", req)
	var errResp api.ErrorBody
	decodeResp(t, resp, &errResp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second bulk request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("throttled response has no Retry-After")
	}

	var st StatsResponse
	if err := getJSON(ts.URL+"/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil || len(st.Admission.Tenants) == 0 {
		t.Fatal("/stats must carry the per-tenant admission breakdown")
	}
	rows := make(map[string]bool, len(st.Admission.Tenants))
	for _, row := range st.Admission.Tenants {
		rows[row.Tenant] = true
	}
	if !rows["alice"] || !rows["bob"] {
		t.Fatalf("per-tenant rows %v, want alice and bob", rows)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`hdindex_tenant_accepted_total{tenant="alice"}`,
		`hdindex_tenant_shed_total{tenant="bob",reason="tenant"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// With an SLO target and a frontier, auto requests run the tuner's
// operating point; named presets stay pinned; /stats and /metrics
// expose the decision.
func TestServerSLOTunerAppliesChoice(t *testing.T) {
	target, err := slo.ParseTarget("recall>=0.85")
	if err != nil {
		t.Fatal(err)
	}
	frontier := &slo.Frontier{
		FormatVersion: slo.FrontierFormatVersion, Dataset: "t", K: 5,
		Points: []slo.Point{
			{Alpha: 64, Gamma: 16, MeanQueryUS: 100, P99QueryUS: 300, Recall: 0.9},
			{Alpha: 128, Gamma: 32, MeanQueryUS: 200, P99QueryUS: 600, Recall: 0.99},
		},
	}
	ts, _, ds := newTestServer(t, Config{SLO: &target, Frontier: frontier})
	q := ds.PerturbedQueries(1, 0.02, 25)[0]

	// Auto (the default) runs the tuner's choice: the cheapest point
	// with recall >= 0.85 is α=64/γ=16.
	var got api.SearchResponse
	if code := post(t, ts.URL+"/search", api.SearchRequest{Query: q, K: 5, Stats: true}, &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if got.Stats.Alpha != 64 || got.Stats.Gamma != 16 || got.Stats.Preset != "auto" {
		t.Fatalf("auto stats echo %+v, want the tuner point 64/16 preset=auto", got.Stats)
	}

	// Explicit knobs and named presets are never tuner-overridden.
	req := api.SearchRequest{Query: q, K: 5, Stats: true, Tuning: api.Tuning{SearchOptions: hdindex.SearchOptions{Alpha: 100}}}
	if code := post(t, ts.URL+"/search", req, &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if got.Stats.Alpha != 100 {
		t.Fatalf("explicit alpha overridden to %d", got.Stats.Alpha)
	}
	req = api.SearchRequest{Query: q, K: 5, Stats: true, Tuning: api.Tuning{Preset: "exact"}}
	if code := post(t, ts.URL+"/search", req, &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if got.Stats.Alpha != 512 || got.Stats.Preset != "exact" {
		t.Fatalf("exact preset stats echo %+v, want 512/exact", got.Stats)
	}

	var st StatsResponse
	if err := getJSON(ts.URL+"/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.SLO == nil {
		t.Fatal("/stats must carry the slo block when a tuner runs")
	}
	if st.SLO.Target != "recall>=0.85" || st.SLO.Choice.Alpha != 64 || st.SLO.Choice.SLOUnmet {
		t.Fatalf("slo block %+v, want target recall>=0.85 choice alpha=64 met", st.SLO)
	}
	if st.SLO.SampledN == 0 {
		t.Fatal("served queries must feed the tuner's replay sample")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hdindex_slo_alpha 64", "hdindex_slo_gamma 16", "hdindex_slo_unmet 0"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// An infeasible target surfaces slo_unmet everywhere while the tuner
// serves the nearest point.
func TestServerSLOUnmetSurfaces(t *testing.T) {
	target, err := slo.ParseTarget("recall>=0.999")
	if err != nil {
		t.Fatal(err)
	}
	frontier := &slo.Frontier{
		FormatVersion: slo.FrontierFormatVersion, K: 5,
		Points: []slo.Point{{Alpha: 64, Gamma: 16, MeanQueryUS: 100, P99QueryUS: 300, Recall: 0.9}},
	}
	ts, _, _ := newTestServer(t, Config{SLO: &target, Frontier: frontier})

	var st StatsResponse
	if err := getJSON(ts.URL+"/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.SLO == nil || !st.SLO.Choice.SLOUnmet {
		t.Fatalf("slo block %+v, want slo_unmet on an infeasible target", st.SLO)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "hdindex_slo_unmet 1") {
		t.Error("/metrics missing hdindex_slo_unmet 1")
	}
}

// Named presets pin their quality through an overload: while sustained
// pressure flips auto requests onto the degraded cascade, concurrent
// "exact" requests keep the full 512/512 cascade and never echo
// degraded.
func TestPresetPinnedUnderPressure(t *testing.T) {
	ds := data.Generate(data.Config{Name: "t", N: 1500, Dim: 32, Clusters: 6, Lo: 0, Hi: 1, Seed: 42})
	idx, err := hdindex.Build(t.TempDir(), ds.Vectors, hdindex.Options{
		Tau: 4, Omega: 8, M: 4, Alpha: 128, Gamma: 32, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	ts := httptest.NewServer(New(idx, Config{Admission: admission.Config{
		MaxInflight: 1, MaxQueue: 4, DegradePressure: 1e-9,
	}}).Handler())
	t.Cleanup(ts.Close)

	queries := ds.PerturbedQueries(24, 0.02, 31)
	autoReq := api.SearchBatchRequest{Queries: queries, K: 5, Stats: true}
	exactReq := api.SearchRequest{Query: queries[0], K: 5, Stats: true,
		Tuning: api.Tuning{Preset: "exact"}}

	var autoDegraded atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp := postTenant(t, ts.URL+"/searchbatch", "", autoReq)
				if resp.StatusCode == http.StatusOK {
					var sr api.SearchBatchResponse
					if json.NewDecoder(resp.Body).Decode(&sr) == nil {
						for _, st := range sr.Stats {
							if st != nil && st.Degraded {
								autoDegraded.Add(1)
								break
							}
						}
					}
				}
				resp.Body.Close()
			}
		}()
	}

	var exactOK int
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && (autoDegraded.Load() == 0 || exactOK < 5) {
		resp := postTenant(t, ts.URL+"/search", "", exactReq)
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close() // shed mid-storm: fine, retry
			continue
		}
		var sr api.SearchResponse
		err := json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil || sr.Stats == nil {
			t.Fatalf("accepted exact request: decode err %v, stats %+v", err, sr.Stats)
		}
		if sr.Stats.Degraded {
			t.Fatal("pinned exact request came back degraded")
		}
		if sr.Stats.Alpha != 512 || sr.Stats.Gamma != 512 || sr.Stats.Preset != "exact" {
			t.Fatalf("pinned exact request ran %d/%d preset=%q, want 512/512/exact",
				sr.Stats.Alpha, sr.Stats.Gamma, sr.Stats.Preset)
		}
		exactOK++
	}
	close(stop)
	wg.Wait()

	if autoDegraded.Load() == 0 {
		t.Fatal("storm never degraded an auto request; pressure-pinning untested")
	}
	if exactOK == 0 {
		t.Fatal("no pinned exact request was accepted during the storm")
	}
}

// Overload degradation is the fast preset: under pressure a request
// that left α and γ unset runs exactly what "preset": "fast" runs — the
// same cascade and the same answer — and echoes degraded exactly when
// fast lowered a knob; the pinned fast request never does. Over built
// cascades at, below and around fast's floors and ks up to past the
// built α.
func TestDegradeRunsPresetFast(t *testing.T) {
	ds := data.Generate(data.Config{Name: "t", N: 600, Dim: 8, Clusters: 4, Lo: 0, Hi: 1, Seed: 42})
	q := ds.PerturbedQueries(1, 0.02, 32)[0]
	for _, built := range []hdindex.Options{
		{Alpha: 4096, Gamma: 1024},
		{Alpha: 256, Gamma: 64},
		{Alpha: 64, Gamma: 16},
		{Alpha: 48, Gamma: 12},
		{Alpha: 256, Gamma: 64, UsePtolemaic: true},
		{Alpha: 4096, Beta: 512, Gamma: 128, UsePtolemaic: true},
	} {
		built.Tau, built.Omega, built.M, built.Seed = 2, 8, 4, 1
		idx, err := hdindex.Build(t.TempDir(), ds.Vectors, built)
		if err != nil {
			t.Fatal(err)
		}
		s := New(idx, Config{MaxK: 1 << 20, Admission: admission.Config{MaxInflight: 1, DegradePressure: 1e-9}})
		serve := func(req api.SearchRequest) api.SearchResponse {
			t.Helper()
			body, _ := json.Marshal(req)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(string(body))))
			var out api.SearchResponse
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil || out.Stats == nil {
				t.Fatalf("built %+v: %s answered %d %s", built, body, rec.Code, rec.Body)
			}
			return out
		}
		for _, k := range []int{1, 10, built.Gamma, built.Alpha - 1, built.Alpha, built.Alpha + 44} {
			fast, err := idx.PresetOptions(hdindex.PresetFast, k)
			if err != nil {
				t.Fatal(err)
			}
			holdPressure(t, s)
			degraded := serve(api.SearchRequest{Query: q, K: k, Stats: true})
			pinned := serve(api.SearchRequest{Query: q, K: k, Stats: true, Tuning: api.Tuning{Preset: "fast"}})
			name := fmt.Sprintf("built %d/%d/%d ptolemaic=%v, k=%d", built.Alpha, built.Beta, built.Gamma, built.UsePtolemaic, k)
			if degraded.Stats.Degraded != (fast != hdindex.SearchOptions{}) || pinned.Stats.Degraded {
				t.Errorf("%s: degraded echo %v under pressure and %v pinned, fast options %+v",
					name, degraded.Stats.Degraded, pinned.Stats.Degraded, fast)
			}
			d, p := degraded.Stats.QueryStats, pinned.Stats.QueryStats
			if d.Alpha != p.Alpha || d.Beta != p.Beta || d.Gamma != p.Gamma || d.Ptolemaic != p.Ptolemaic ||
				!slices.Equal(degraded.Results, pinned.Results) {
				t.Errorf("%s: degrade ran %d/%d/%d, fast %d/%d/%d, or their answers differ",
					name, d.Alpha, d.Beta, d.Gamma, p.Alpha, p.Beta, p.Gamma)
			}
		}
		idx.Close()
	}
}

// holdPressure arms s's degrade hold: one slot held, a second request
// that finds it taken is shed against the latency already observed.
func holdPressure(t *testing.T, s *Server) {
	t.Helper()
	release, err := s.adm.Acquire(context.Background(), "", 1)
	if err != nil {
		t.Fatal(err)
	}
	s.adm.Observe(time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	if again, err := s.adm.Acquire(ctx, "", 1); err == nil {
		again()
	}
	cancel()
	release()
	if !s.adm.ShouldDegrade() {
		t.Fatal("admission did not arm the degrade hold")
	}
}
