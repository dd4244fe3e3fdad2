package slo

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// synthetic frontier: four points, recall rising with cost.
func testFrontier() *Frontier {
	return &Frontier{
		FormatVersion: FrontierFormatVersion,
		Dataset:       "synthetic",
		K:             10,
		Points: []Point{
			{Alpha: 64, Gamma: 16, MeanQueryUS: 100, P99QueryUS: 300, Recall: 0.80},
			{Alpha: 128, Gamma: 32, MeanQueryUS: 200, P99QueryUS: 600, Recall: 0.95},
			{Alpha: 256, Gamma: 64, MeanQueryUS: 400, P99QueryUS: 1200, Recall: 0.985},
			{Alpha: 512, Gamma: 128, MeanQueryUS: 800, P99QueryUS: 2400, Recall: 0.999},
		},
	}
}

func mustTarget(t *testing.T, s string) Target {
	t.Helper()
	tg, err := ParseTarget(s)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestParseTarget(t *testing.T) {
	tg := mustTarget(t, "recall>=0.98")
	if tg.Kind != TargetRecall || tg.Recall != 0.98 {
		t.Fatalf("got %+v", tg)
	}
	tg = mustTarget(t, "p99 <= 2ms")
	if tg.Kind != TargetP99 || tg.P99 != 2*time.Millisecond {
		t.Fatalf("got %+v", tg)
	}
	for _, bad := range []string{"", "recall<=0.9", "p99>=2ms", "recall>=1.5", "recall>=0", "p99<=-1ms", "qps>=100", "recall>=abc"} {
		if _, err := ParseTarget(bad); !errors.Is(err, ErrBadTarget) {
			t.Fatalf("ParseTarget(%q) err = %v, want ErrBadTarget", bad, err)
		}
	}
	// String round-trips through the parser.
	for _, s := range []string{"recall>=0.98", "p99<=2ms"} {
		tg := mustTarget(t, s)
		if _, err := ParseTarget(tg.String()); err != nil {
			t.Fatalf("%q does not re-parse: %v", tg.String(), err)
		}
	}
}

func TestTunerDecisionTable(t *testing.T) {
	cases := []struct {
		target   string
		alpha    int
		slyUnmet bool
	}{
		// Feasible recall floor → cheapest feasible point, not the widest.
		{"recall>=0.98", 256, false},
		{"recall>=0.90", 128, false},
		{"recall>=0.5", 64, false},
		// Infeasible recall floor → best-recall point + slo_unmet.
		{"recall>=0.9999", 512, true},
		// Feasible p99 ceiling → best recall under the ceiling.
		{"p99<=1300us", 256, false},
		{"p99<=10ms", 512, false},
		// Infeasible p99 ceiling → lowest-p99 point + slo_unmet.
		{"p99<=100us", 64, true},
	}
	for _, c := range cases {
		tn, err := NewTuner(testFrontier(), Config{Target: mustTarget(t, c.target)})
		if err != nil {
			t.Fatal(err)
		}
		ch := tn.Current()
		if ch.Alpha != c.alpha || ch.SLOUnmet != c.slyUnmet {
			t.Fatalf("%s: chose alpha=%d unmet=%v, want alpha=%d unmet=%v (%s)",
				c.target, ch.Alpha, ch.SLOUnmet, c.alpha, c.slyUnmet, ch.Reason)
		}
		if ch.Gamma != ch.Point.Gamma || ch.At.IsZero() || ch.Reason == "" {
			t.Fatalf("%s: malformed choice %+v", c.target, ch)
		}
	}
}

func TestTunerHysteresis(t *testing.T) {
	f := testFrontier()
	tn, err := NewTuner(f, Config{Target: mustTarget(t, "recall>=0.98")})
	if err != nil {
		t.Fatal(err)
	}
	if tn.Current().Alpha != 256 {
		t.Fatalf("initial choice alpha=%d", tn.Current().Alpha)
	}

	// A jittered refresh where an adjacent point looks 5% cheaper must
	// NOT flap the choice: the current point still meets the SLO and the
	// win is under the hysteresis margin.
	g := testFrontier()
	g.Points[1].Recall = 0.981 // alpha=128 now "feasible"...
	g.Points[1].MeanQueryUS = 390
	if err := tn.SetFrontier(g); err != nil {
		t.Fatal(err)
	}
	if got := tn.Current().Alpha; got != 256 {
		t.Fatalf("choice flapped to alpha=%d on a 2.5%% win", got)
	}

	// A decisive win (beyond hysteresis) does switch.
	h := testFrontier()
	h.Points[1].Recall = 0.981
	h.Points[1].MeanQueryUS = 200 // 50% cheaper
	if err := tn.SetFrontier(h); err != nil {
		t.Fatal(err)
	}
	if got := tn.Current().Alpha; got != 128 {
		t.Fatalf("choice did not move on a 50%% win, alpha=%d", got)
	}

	// When the current point stops meeting the SLO hysteresis does not
	// hold it: the tuner must move immediately.
	i := testFrontier()
	i.Points[1].Recall = 0.90
	if err := tn.SetFrontier(i); err != nil {
		t.Fatal(err)
	}
	if got := tn.Current().Alpha; got != 256 {
		t.Fatalf("stale infeasible choice retained, alpha=%d", got)
	}

	// History recorded every switch, flat refreshes excluded.
	hist := tn.History()
	if len(hist) != 3 {
		t.Fatalf("history has %d entries, want 3: %+v", len(hist), hist)
	}
	last := hist[len(hist)-1]
	if last.Alpha != tn.Current().Alpha {
		t.Fatalf("history tail %+v != current %+v", last, tn.Current())
	}
}

func TestFrontierGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frontier.json")
	f := testFrontier()
	f.Points[0].MAP = 0.77
	f.Points[0].CandidatesPerQuery = 123.5
	if err := WriteFrontier(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFrontier(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.FormatVersion != FrontierFormatVersion || g.Dataset != f.Dataset || g.K != f.K {
		t.Fatalf("header mangled: %+v", g)
	}
	if len(g.Points) != len(f.Points) {
		t.Fatalf("point count %d != %d", len(g.Points), len(f.Points))
	}
	for i := range f.Points {
		if g.Points[i] != f.Points[i] {
			t.Fatalf("point %d mangled: %+v != %+v", i, g.Points[i], f.Points[i])
		}
	}
	// No torn temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestFrontierRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frontier.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrontier(path); !errors.Is(err, ErrBadFrontier) {
		t.Fatalf("garbage file err = %v", err)
	}
	bad := []*Frontier{
		{FormatVersion: 99, Points: []Point{{Alpha: 64, Gamma: 16}}},
		{FormatVersion: FrontierFormatVersion},
		{FormatVersion: FrontierFormatVersion, Points: []Point{{Alpha: 0, Gamma: 0}}},
		{FormatVersion: FrontierFormatVersion, Points: []Point{{Alpha: 16, Gamma: 64, Recall: 0.5}}},
		{FormatVersion: FrontierFormatVersion, Points: []Point{{Alpha: 64, Gamma: 16, Recall: 1.5}}},
	}
	for i, f := range bad {
		if err := f.Validate(); !errors.Is(err, ErrBadFrontier) {
			t.Fatalf("bad frontier %d validated: %v", i, err)
		}
	}
	// Validate sorts points into cost order.
	f := &Frontier{FormatVersion: FrontierFormatVersion, Points: []Point{
		{Alpha: 512, Gamma: 128, Recall: 0.99},
		{Alpha: 64, Gamma: 16, Recall: 0.8},
	}}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.Points[0].Alpha != 64 || f.Widest().Alpha != 512 {
		t.Fatalf("points not sorted: %+v", f.Points)
	}
}

func TestTunerRemeasure(t *testing.T) {
	// Replay stub: the widest point returns truth IDs {1..k}; alpha=64
	// misses half of them; latencies come back doubled so the EWMA
	// blend is observable.
	replayed := map[int]int{}
	replay := func(_ context.Context, queries [][]float32, k, alpha, gamma int) (ReplayResult, error) {
		replayed[alpha]++
		ids := make([][]uint64, len(queries))
		for i := range ids {
			n := k
			if alpha == 64 {
				n = k / 2
			}
			for id := 1; id <= n; id++ {
				ids[i] = append(ids[i], uint64(id))
			}
		}
		return ReplayResult{MeanQueryUS: float64(alpha) * 2, P99QueryUS: float64(alpha) * 6, IDs: ids}, nil
	}
	tn, err := NewTuner(testFrontier(), Config{
		Target: mustTarget(t, "recall>=0.98"),
		Replay: replay,
	})
	if err != nil {
		t.Fatal(err)
	}

	// No sampled queries yet → no-op.
	ran, err := tn.Remeasure(context.Background())
	if err != nil || ran {
		t.Fatalf("remeasure with empty sample ran=%v err=%v", ran, err)
	}
	for i := 0; i < 5; i++ {
		tn.Record([]float32{float32(i), 1, 2})
	}

	// Under pressure → skipped.
	pressed := true
	tn.cfg.UnderPressure = func() bool { return pressed }
	ran, err = tn.Remeasure(context.Background())
	if err != nil || ran {
		t.Fatalf("remeasure under pressure ran=%v err=%v", ran, err)
	}
	pressed = false

	ran, err = tn.Remeasure(context.Background())
	if err != nil || !ran {
		t.Fatalf("remeasure ran=%v err=%v", ran, err)
	}
	f := tn.Frontier()
	for _, p := range f.Points {
		if !p.Live {
			t.Fatalf("point %+v not marked live", p)
		}
	}
	// alpha=64: stored recall 0.80 blended with measured overlap 0.5 → 0.65.
	if got := f.Points[0].Recall; got < 0.64 || got > 0.66 {
		t.Fatalf("alpha=64 blended recall = %v, want ~0.65", got)
	}
	// widest point's recall is the proxy truth — untouched.
	if got := f.Widest().Recall; got != 0.999 {
		t.Fatalf("widest recall rewritten to %v", got)
	}
	// latency blended: stored 100 with measured 128 → 114.
	if got := f.Points[0].MeanQueryUS; got != 114 {
		t.Fatalf("alpha=64 blended mean = %v, want 114", got)
	}
	if replayed[512] != 1 || replayed[64] != 1 {
		t.Fatalf("replay counts: %+v", replayed)
	}
	if s := tn.Stats(); s.Remeasures != 1 || s.SampledN != 5 || s.LastRemeasure == "" {
		t.Fatalf("stats %+v", s)
	}
}

// tierConfigJSON is a valid tier config file; badTierConfigs are files
// ReadTierConfig must refuse, one for each rule Validate enforces.
var (
	tierConfigJSON = `{
  "default_tier": "standard",
  "tiers": {
    "premium":  {"preset": "exact", "rps_share": 1.0, "burst_share": 1.0, "max_inflight_share": 0.5},
    "standard": {"preset": "auto", "rps_share": 0.5, "burst_share": 0.5},
    "batch":    {"preset": "fast", "rps_share": 0.1, "burst_share": 0.2, "max_inflight_share": 0.1}
  },
  "tenants": {"acme": "premium", "crawler": "batch"}
}`
	badTierConfigs = []string{
		`{"tiers": {}}`,
		`{"tiers": {"a": {"preset": "warp"}}}`,
		`{"tiers": {"a": {"preset": "fast", "rps_share": 2}}}`,
		`{"default_tier": "missing", "tiers": {"a": {"preset": "fast"}}}`,
		`{"tiers": {"a": {"preset": "fast"}}, "tenants": {"x": "missing"}}`,
	}
)

func TestTierConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiers.json")
	if err := os.WriteFile(path, []byte(tierConfigJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := ReadTierConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	name, tier, ok := c.TierFor("acme")
	if !ok || name != "premium" || tier.Preset != "exact" {
		t.Fatalf("acme resolved to %q %+v %v", name, tier, ok)
	}
	name, _, ok = c.TierFor("unknown-tenant")
	if !ok || name != "standard" {
		t.Fatalf("unknown tenant resolved to %q %v", name, ok)
	}
	if got := c.PresetFor("crawler"); got != "fast" {
		t.Fatalf("crawler preset %q", got)
	}
	if got := c.PresetFor(""); got != "auto" {
		t.Fatalf("headerless preset %q", got)
	}

	for i, j := range badTierConfigs {
		if err := os.WriteFile(path, []byte(j), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTierConfig(path); !errors.Is(err, ErrBadTiers) {
			t.Fatalf("bad config %d accepted: %v", i, err)
		}
	}
	// nil config falls through safely.
	var nilCfg *TierConfig
	if _, _, ok := nilCfg.TierFor("x"); ok {
		t.Fatal("nil config produced a tier")
	}
}

// TestMeasure pins the shared timing loop's contract: ids in input
// order, a p99 that is the nearest-rank sample (the maximum below 100
// samples) and so never below the mean, and the first error returned
// with no call after it.
func TestMeasure(t *testing.T) {
	queries := [][]float32{{3}, {1}, {4}, {1}, {5}}
	rep, err := Measure(queries, func(q []float32) ([]uint64, error) {
		return []uint64{uint64(q[0]), uint64(q[0]) + 10}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ids := range rep.IDs {
		if want := uint64(queries[i][0]); len(ids) != 2 || ids[0] != want || ids[1] != want+10 {
			t.Fatalf("query %d: ids %v, want [%d %d]", i, ids, want, want+10)
		}
	}
	if rep.MeanQueryUS < 0 || rep.P99QueryUS < rep.MeanQueryUS {
		t.Fatalf("mean %v µs, p99 %v µs", rep.MeanQueryUS, rep.P99QueryUS)
	}

	first, second := errors.New("first"), errors.New("second")
	calls := 0
	_, err = Measure(queries, func(q []float32) ([]uint64, error) {
		calls++
		switch calls {
		case 2:
			return nil, first
		case 3:
			return nil, second
		}
		return nil, nil
	})
	if !errors.Is(err, first) || calls != 2 {
		t.Fatalf("err %v after %d calls, want the first error after 2", err, calls)
	}

	if rep, err := Measure(nil, nil); err != nil || len(rep.IDs) != 0 || rep.MeanQueryUS != 0 || rep.P99QueryUS != 0 {
		t.Fatalf("empty query set: %+v, %v", rep, err)
	}
}
