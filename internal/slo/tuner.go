package slo

import (
	"context"
	"math"
	"slices"
	"sync"
	"time"
)

// Choice is one tuner decision: the operating point it picked, why,
// and when. Alpha/Gamma are duplicated out of Point so callers that
// only want the knobs never reach into the frontier.
type Choice struct {
	Alpha int `json:"alpha"`
	Gamma int `json:"gamma"`
	// Point is the frontier row behind the decision.
	Point Point `json:"point"`
	// SLOUnmet reports an infeasible target: no frontier point
	// satisfies the SLO, so the tuner picked the nearest point (best
	// recall for a recall target, lowest p99 for a latency target) and
	// raised this flag for /stats and /metrics to surface.
	SLOUnmet bool `json:"slo_unmet"`
	// Reason is a short human string for /stats and `hdtool tune`.
	Reason string `json:"reason"`
	// At is when the decision was made.
	At time.Time `json:"at"`
}

// ReplayResult is what one live re-measurement pass at one operating
// point produced: latencies over the replayed sample and the result
// IDs per query (overlap against the widest point's IDs approximates
// recall without brute-force ground truth).
type ReplayResult struct {
	MeanQueryUS float64
	P99QueryUS  float64
	IDs         [][]uint64
}

// Measure runs query over each of queries, in input order and one at a
// time, timing every call: the one per-query timing loop behind the
// tuner's live replays, the frontier sweep and the paper harness. It
// returns the mean and the nearest-rank p99 (the ⌈0.99·n⌉-th smallest,
// the convention the telemetry histograms estimate) in microseconds
// with the ids of every call, in input order. The first error stops the
// run and is returned. Because the calls run in order, query may append
// whatever else it keeps per query.
func Measure(queries [][]float32, query func(q []float32) ([]uint64, error)) (ReplayResult, error) {
	out := ReplayResult{IDs: make([][]uint64, len(queries))}
	if len(queries) == 0 {
		return out, nil
	}
	durs := make([]time.Duration, len(queries))
	var total time.Duration
	for i, q := range queries {
		start := time.Now()
		ids, err := query(q)
		durs[i] = time.Since(start)
		if err != nil {
			return ReplayResult{}, err
		}
		total += durs[i]
		out.IDs[i] = ids
	}
	slices.Sort(durs)
	p99 := durs[int(math.Ceil(0.99*float64(len(durs))))-1]
	out.MeanQueryUS = float64(total.Nanoseconds()) / 1e3 / float64(len(queries))
	out.P99QueryUS = float64(p99.Nanoseconds()) / 1e3
	return out, nil
}

// ReplayFunc replays sampled queries at an explicit operating point.
// The serving layer provides it (queries against the live index with
// per-query α/γ overrides); the tuner never touches the index itself.
type ReplayFunc func(ctx context.Context, queries [][]float32, k, alpha, gamma int) (ReplayResult, error)

// Config is what the serving layer hands the Tuner: the target and the
// two hooks into the server. Everything else about the tuner is one of
// the constants below.
type Config struct {
	// Target is the SLO to hold.
	Target Target
	// Replay runs a re-measurement pass; nil disables live
	// re-measurement.
	Replay ReplayFunc
	// UnderPressure reports that the server is loaded; re-measurement
	// passes are skipped while it returns true so tuning never competes
	// with real traffic. Nil means never under pressure.
	UnderPressure func() bool
}

const (
	// retuneInterval is how often Run re-evaluates the decision against
	// the current frontier; remeasureInterval how often it replays
	// sampled queries to refresh the frontier itself.
	retuneInterval    = 30 * time.Second
	remeasureInterval = 10 * time.Minute
	// hysteresis is the fractional improvement a candidate point must
	// show over the current feasible choice before the tuner switches.
	// It stops the decision flapping between adjacent frontier points
	// whose measurements jitter across re-measurements.
	hysteresis = 0.10
	// sampleSize bounds the ring of recent real queries kept for replay,
	// replayK is the neighbour count they are replayed with.
	sampleSize = 256
	replayK    = 10
	// ewma is the blend weight of fresh live measurements into the
	// frontier's stored latencies and recall.
	ewma = 0.5
	// historySize bounds the retained decision history.
	historySize = 32
)

// Tuner holds the current frontier and the current decision, and keeps
// both fresh: Reevaluate re-picks against the frontier, Remeasure
// replays sampled real queries across the frontier's grid to refresh
// the frontier itself. Safe for concurrent use.
type Tuner struct {
	cfg Config

	mu       sync.Mutex
	frontier *Frontier
	choice   Choice
	history  []Choice // most recent last
	sample   [][]float32
	sampleAt int // next ring slot
	sampleN  uint64
	remeasN  uint64
	remeasAt time.Time
}

// NewTuner builds a tuner over a validated frontier and makes the
// initial decision immediately, so Current is never empty.
func NewTuner(f *Frontier, cfg Config) (*Tuner, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	t := &Tuner{cfg: cfg, frontier: f}
	t.mu.Lock()
	t.reevaluateLocked(time.Now())
	t.mu.Unlock()
	return t, nil
}

// Current returns the current decision.
func (t *Tuner) Current() Choice {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.choice
}

// History returns the retained decisions, oldest first, including the
// current one as the last element.
func (t *Tuner) History() []Choice {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Choice, len(t.history))
	copy(out, t.history)
	return out
}

// Frontier returns the current frontier (points copied; callers may
// not mutate the tuner's state through it).
func (t *Tuner) Frontier() Frontier {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := *t.frontier
	f.Points = append([]Point(nil), t.frontier.Points...)
	return f
}

// Record offers one real query vector to the replay sample. The ring
// keeps the most recent sampleSize queries; the vector is copied so
// callers may reuse their buffer.
func (t *Tuner) Record(q []float32) {
	cp := append([]float32(nil), q...)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sample) < sampleSize {
		t.sample = append(t.sample, cp)
	} else {
		t.sample[t.sampleAt] = cp
	}
	t.sampleAt = (t.sampleAt + 1) % sampleSize
	t.sampleN++
}

// pickPoint applies the decision rules to a frontier, with no
// hysteresis: for a recall floor, the cheapest (lowest mean latency)
// feasible point, or the best-recall point flagged slo_unmet when none
// is feasible; for a p99 ceiling, the best-recall feasible point, or
// the lowest-p99 point flagged slo_unmet.
func pickPoint(f *Frontier, target Target) (Point, bool) {
	best := -1
	switch target.Kind {
	case TargetRecall:
		for i, p := range f.Points {
			if p.Recall < target.Recall {
				continue
			}
			if best < 0 || p.MeanQueryUS < f.Points[best].MeanQueryUS {
				best = i
			}
		}
		if best >= 0 {
			return f.Points[best], false
		}
		for i := range f.Points {
			if best < 0 || f.Points[i].Recall > f.Points[best].Recall {
				best = i
			}
		}
		return f.Points[best], true
	case TargetP99:
		ceil := float64(target.P99.Microseconds())
		for i, p := range f.Points {
			if p.P99QueryUS > ceil {
				continue
			}
			if best < 0 || p.Recall > f.Points[best].Recall {
				best = i
			}
		}
		if best >= 0 {
			return f.Points[best], false
		}
		for i := range f.Points {
			if best < 0 || f.Points[i].P99QueryUS < f.Points[best].P99QueryUS {
				best = i
			}
		}
		return f.Points[best], true
	}
	return f.Widest(), true
}

// improvement reports how much candidate improves on current along
// the axis the target optimises, as a fraction of current.
func improvement(target Target, current, candidate Point) float64 {
	switch target.Kind {
	case TargetRecall:
		if current.MeanQueryUS <= 0 {
			return 0
		}
		return (current.MeanQueryUS - candidate.MeanQueryUS) / current.MeanQueryUS
	case TargetP99:
		if current.Recall <= 0 {
			return math.Inf(1)
		}
		return (candidate.Recall - current.Recall) / current.Recall
	}
	return 0
}

// feasible reports whether p satisfies the target.
func feasible(target Target, p Point) bool {
	switch target.Kind {
	case TargetRecall:
		return p.Recall >= target.Recall
	case TargetP99:
		return p.P99QueryUS <= float64(target.P99.Microseconds())
	}
	return false
}

// Reevaluate re-picks the operating point against the current frontier
// and returns the (possibly unchanged) decision. The serving layer
// calls it on its timer and after pressure transitions.
func (t *Tuner) Reevaluate() Choice {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reevaluateLocked(time.Now())
}

func (t *Tuner) reevaluateLocked(now time.Time) Choice {
	cand, unmet := pickPoint(t.frontier, t.cfg.Target)
	cur := t.choice

	// Hysteresis: if the current choice still exists on the frontier
	// and still meets the SLO, stick with it unless the candidate is a
	// real improvement — adjacent points whose measurements jitter by a
	// few percent must not make the knobs flap.
	if !cur.At.IsZero() && !unmet {
		if curPt, ok := t.lookupLocked(cur.Alpha, cur.Gamma); ok && feasible(t.cfg.Target, curPt) {
			samePoint := cand.Alpha == cur.Alpha && cand.Gamma == cur.Gamma
			if !samePoint && improvement(t.cfg.Target, curPt, cand) < hysteresis {
				cand, unmet = curPt, false
			}
		}
	}

	reason := "cheapest point meeting " + t.cfg.Target.String()
	if unmet {
		reason = "SLO " + t.cfg.Target.String() + " infeasible on current frontier; nearest point"
	}
	if cand.Alpha == cur.Alpha && cand.Gamma == cur.Gamma && unmet == cur.SLOUnmet && !cur.At.IsZero() {
		// Same decision: refresh the backing point but keep history flat.
		t.choice.Point = cand
		return t.choice
	}
	t.choice = Choice{
		Alpha: cand.Alpha, Gamma: cand.Gamma, Point: cand,
		SLOUnmet: unmet, Reason: reason, At: now,
	}
	t.history = append(t.history, t.choice)
	if len(t.history) > historySize {
		t.history = t.history[len(t.history)-historySize:]
	}
	return t.choice
}

func (t *Tuner) lookupLocked(alpha, gamma int) (Point, bool) {
	for _, p := range t.frontier.Points {
		if p.Alpha == alpha && p.Gamma == gamma {
			return p, true
		}
	}
	return Point{}, false
}

// SetFrontier swaps in a refreshed frontier (validated) and
// immediately re-evaluates against it.
func (t *Tuner) SetFrontier(f *Frontier) error {
	if err := f.Validate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.frontier = f
	t.reevaluateLocked(time.Now())
	return nil
}

// Remeasure replays the sampled real queries across the frontier's
// grid of operating points and refreshes the frontier in place:
// latencies and recall EWMA-blend into the stored values. Recall has
// no brute-force ground truth live, so the widest point's results
// stand in as truth — its own recall is left untouched and every
// narrower point is scored by overlap against it. No-ops (returning
// false) when re-measurement is disabled, no queries are sampled yet,
// or the server is under pressure.
func (t *Tuner) Remeasure(ctx context.Context) (bool, error) {
	if t.cfg.Replay == nil {
		return false, nil
	}
	if t.cfg.UnderPressure != nil && t.cfg.UnderPressure() {
		return false, nil
	}
	t.mu.Lock()
	queries := make([][]float32, len(t.sample))
	copy(queries, t.sample)
	f := *t.frontier
	f.Points = append([]Point(nil), t.frontier.Points...)
	t.mu.Unlock()
	if len(queries) == 0 {
		return false, nil
	}

	wide := f.Widest()
	truth, err := t.cfg.Replay(ctx, queries, replayK, wide.Alpha, wide.Gamma)
	if err != nil {
		return false, err
	}
	for i := range f.Points {
		p := &f.Points[i]
		var res ReplayResult
		if p.Alpha == wide.Alpha && p.Gamma == wide.Gamma {
			res = truth
		} else {
			res, err = t.cfg.Replay(ctx, queries, replayK, p.Alpha, p.Gamma)
			if err != nil {
				return false, err
			}
			p.Recall = (1-ewma)*p.Recall + ewma*overlapRecall(truth.IDs, res.IDs)
		}
		p.MeanQueryUS = (1-ewma)*p.MeanQueryUS + ewma*res.MeanQueryUS
		p.P99QueryUS = (1-ewma)*p.P99QueryUS + ewma*res.P99QueryUS
		p.Live = true
	}

	t.mu.Lock()
	t.frontier = &f
	t.remeasN++
	t.remeasAt = time.Now()
	t.reevaluateLocked(time.Now())
	t.mu.Unlock()
	return true, nil
}

// overlapRecall scores got against truth: mean fraction of each truth
// result set also present in the corresponding got set.
func overlapRecall(truth, got [][]uint64) float64 {
	if len(truth) == 0 {
		return 0
	}
	var sum float64
	for i := range truth {
		if len(truth[i]) == 0 {
			sum++
			continue
		}
		set := make(map[uint64]struct{}, len(truth[i]))
		for _, id := range truth[i] {
			set[id] = struct{}{}
		}
		hit := 0
		if i < len(got) {
			for _, id := range got[i] {
				if _, ok := set[id]; ok {
					hit++
				}
			}
		}
		sum += float64(hit) / float64(len(truth[i]))
	}
	return sum / float64(len(truth))
}

// Run drives the tuner until ctx is done: re-evaluate every
// retuneInterval, re-measure every remeasureInterval (skipped under
// pressure). The
// serving layer runs it in one goroutine.
func (t *Tuner) Run(ctx context.Context) {
	reeval := time.NewTicker(retuneInterval)
	defer reeval.Stop()
	remeas := time.NewTicker(remeasureInterval)
	defer remeas.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-reeval.C:
			t.Reevaluate()
		case <-remeas.C:
			// A no-op without a Replay hook. Best-effort: a failed
			// replay (index closing, ctx cancel) leaves the previous
			// frontier standing.
			_, _ = t.Remeasure(ctx)
		}
	}
}

// Stats is the tuner's /stats block.
type Stats struct {
	Target        string   `json:"target"`
	Choice        Choice   `json:"choice"`
	History       []Choice `json:"history,omitempty"`
	FrontierSize  int      `json:"frontier_size"`
	SampledN      uint64   `json:"sampled_queries"`
	Remeasures    uint64   `json:"remeasure_passes"`
	LastRemeasure string   `json:"last_remeasure,omitempty"`
}

// Stats snapshots the tuner for /stats.
func (t *Tuner) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Stats{
		Target:       t.cfg.Target.String(),
		Choice:       t.choice,
		History:      append([]Choice(nil), t.history...),
		FrontierSize: len(t.frontier.Points),
		SampledN:     t.sampleN,
		Remeasures:   t.remeasN,
	}
	if !t.remeasAt.IsZero() {
		s.LastRemeasure = t.remeasAt.UTC().Format(time.RFC3339)
	}
	return s
}
