package bench

import (
	"path/filepath"
	"testing"

	"github.com/hd-index/hdindex/internal/slo"
)

func TestParseSweep(t *testing.T) {
	spec, err := ParseSweep("alpha=512, 128,2048")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Param != "alpha" {
		t.Fatalf("param %q", spec.Param)
	}
	// Values sort ascending so the frontier reads as a cost curve.
	want := []int{128, 512, 2048}
	if len(spec.Values) != len(want) {
		t.Fatalf("values %v", spec.Values)
	}
	for i, v := range want {
		if spec.Values[i] != v {
			t.Fatalf("values %v, want %v", spec.Values, want)
		}
	}

	for _, bad := range []string{"", "alpha", "beta=1,2", "alpha=", "alpha=x", "alpha=0", "alpha=-4", "alpha=8,8"} {
		if _, err := ParseSweep(bad); err == nil {
			t.Errorf("ParseSweep(%q) accepted", bad)
		}
	}
}

// sweepSIFT runs RunSweep at smoke scale.
func sweepSIFT(t *testing.T, arg string) *slo.Frontier {
	t.Helper()
	spec, err := ParseSweep(arg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := RunSweep(Config{Scale: 0.05, Queries: 5, K: 10, WorkDir: t.TempDir(), Seed: 42}, spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// RunSweep is the acceptance check of the per-query tuning API: one
// built index, several alpha operating points with no rebuild between
// them, each carrying the resolved cascade and a p99.
func TestRunSweep(t *testing.T) {
	// Listed largest-first: ParseSweep orders the walk smallest-first.
	f := sweepSIFT(t, "alpha=512,64")
	if f.FormatVersion != slo.FrontierFormatVersion || f.Dataset != "SIFT10K" || f.K != 10 || len(f.Points) != 2 {
		t.Fatalf("frontier %+v", f)
	}
	lo, hi := f.Points[0], f.Points[1]
	// The alpha sweep holds α/γ = 4, flooring γ at k.
	if lo.Alpha != 64 || lo.Gamma != 16 || hi.Alpha != 512 || hi.Gamma != 128 {
		t.Fatalf("cascade not echoed: %+v / %+v", lo, hi)
	}
	for _, p := range f.Points {
		if p.CandidatesPerQuery <= 0 || p.MeanQueryUS <= 0 {
			t.Fatalf("point not measured: %+v", p)
		}
		if p.Recall <= 0 || p.Recall > 1 {
			t.Fatalf("recall out of range: %+v", p)
		}
		if p.P99QueryUS < p.MeanQueryUS/10 {
			t.Fatalf("point p99 implausible: %+v", p)
		}
	}
	// A wider cascade can only refine more candidates, and recall must
	// not degrade as it widens.
	if hi.CandidatesPerQuery < lo.CandidatesPerQuery {
		t.Fatalf("alpha=512 refined %v candidates/query, alpha=64 refined %v", hi.CandidatesPerQuery, lo.CandidatesPerQuery)
	}
	if hi.Recall < lo.Recall {
		t.Fatalf("alpha=512 recall %v < alpha=64 recall %v", hi.Recall, lo.Recall)
	}
}

// The swept frontier is a loadable artifact the SLO tuner can resolve
// a target against — the `-sweep-out` → `hdtool tune` path end to end.
func TestSweepFrontierArtifact(t *testing.T) {
	f := sweepSIFT(t, "alpha=64,512")
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "frontier.json")
	if err := slo.WriteFrontier(path, f); err != nil {
		t.Fatal(err)
	}
	g, err := slo.ReadFrontier(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Points) != 2 || g.Points[0] != f.Points[0] || g.Points[1] != f.Points[1] {
		t.Fatalf("round trip mangled: %+v vs %+v", g.Points, f.Points)
	}
	// At this scale alpha=512 covers the whole dataset, so the target
	// must be satisfiable.
	target, err := slo.ParseTarget("recall>=0.9")
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := slo.NewTuner(g, slo.Config{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if ch := tuner.Current(); ch.SLOUnmet || ch.Point.Recall < 0.9 {
		t.Fatalf("recall>=0.9 unresolved against %+v: %+v", g.Points, ch)
	}
}

// A gamma sweep moves γ alone at the built α.
func TestRunSweepGamma(t *testing.T) {
	f := sweepSIFT(t, "gamma=16,64")
	if len(f.Points) != 2 || f.Points[0].Gamma != 16 || f.Points[1].Gamma != 64 || f.Points[0].Alpha != f.Points[1].Alpha {
		t.Fatalf("points %+v", f.Points)
	}
	if f.Points[0].CandidatesPerQuery > f.Points[1].CandidatesPerQuery {
		t.Fatalf("gamma=16 refined more than gamma=64: %+v", f.Points)
	}
}
