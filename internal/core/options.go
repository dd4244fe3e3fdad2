package core

import (
	"errors"
	"fmt"
)

// ErrBadOptions reports a per-query option set that cannot form a valid
// filter cascade: a negative or absurd knob, a cascade that widens
// instead of narrowing (γ > β or β > α), or an explicit knob too small
// to yield k results. It is returned before any tree is touched, so a
// bad request fails fast instead of deep in the tree walk.
var ErrBadOptions = errors.New("core: bad search options")

// ErrDimMismatch reports a query or insert vector whose dimensionality
// differs from the index's. Callers (the facade, the HTTP layer) match
// it with errors.Is to map the failure to a client error.
var ErrDimMismatch = errors.New("core: dimensionality mismatch")

// PtolemaicMode is the tri-state per-query override of the Ptolemaic
// filter: inherit the build-time choice, force it on, or force it off.
type PtolemaicMode int8

// Ptolemaic filter override states.
const (
	PtolemaicDefault PtolemaicMode = iota // use the built Params.UsePtolemaic
	PtolemaicOn
	PtolemaicOff
)

// maxKnob bounds k and explicit per-query α/β/γ/MaxCandidates values.
// The limit is far above any sensible operating point (the paper peaks
// at α = 8192); it exists so a garbage request cannot coerce the scratch
// buffers into multi-gigabyte allocations.
const maxKnob = 1 << 24

// SearchOptions carries per-query overrides of the filter-cascade
// parameters that Params froze at build time. The zero value inherits
// every built default. It is a small value type: copy it freely, never
// share pointers across queries.
type SearchOptions struct {
	// Alpha overrides the leaf candidates fetched per tree (0 = the
	// built Params.Alpha). Raising it explores further along each
	// Hilbert curve — more I/O, better recall.
	Alpha int
	// Beta overrides the triangular-filter survivor count used when the
	// Ptolemaic filter is active (0 = built default, capped at the
	// effective α).
	Beta int
	// Gamma overrides the per-tree filter output size (0 = built
	// default, capped at the effective β). Raising it refines more
	// candidates — more exact distance work, better MAP.
	Gamma int
	// MaxCandidates caps κ, the deduplicated candidate union refined
	// against raw vectors, bounding the query's refinement I/O however
	// the per-tree knobs are set (0 = no cap). Candidates are kept in
	// per-tree filter rank order when truncating.
	MaxCandidates int
	// Ptolemaic switches the §5.2.5 filter per query: better MAP for
	// the same I/O at roughly double the filtering CPU.
	Ptolemaic PtolemaicMode
	// Degrade requests the cheap cascade: when the whole α/β/γ triple is
	// unset, α and γ shrink to a quarter of the built values (floored at
	// 64 and 16 respectively, and at k) so the query does a fraction of
	// the I/O and refinement work. The serving layer sets it under
	// overload pressure; queries that pin any cascade knob explicitly
	// have opted out and run exactly what they asked for. QueryStats
	// echoes Degraded=true only when a knob actually shrank.
	Degrade bool
}

// searchPlan is a fully resolved SearchOptions: every field positive
// and cascade-consistent, ready for the tree walk. Resolution happens
// exactly once per Query (or once per QueryBatch, shared by the whole
// batch).
type searchPlan struct {
	alpha, beta, gamma int
	maxCandidates      int // 0 = unlimited
	ptolemaic          bool
	degraded           bool // the degrade request actually shrank a knob
}

func badOptions(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadOptions, fmt.Sprintf(format, args...))
}

// ValidateOptions resolves o against the built parameters for a query
// asking k neighbours and reports ErrBadOptions without running
// anything — the fail-fast hook the batch entry points (and the shard
// layer's scatter) use so a bad option set never burns a fan-out.
func (ix *Index) ValidateOptions(k int, o SearchOptions) error {
	_, err := ix.planFor(k, o)
	return err
}

// planFor resolves o against the built parameters and validates the
// result for a query asking k neighbours. Unset knobs inherit the built
// defaults, clamped so the cascade still narrows (an explicit α below
// the built γ pulls β and γ down with it); explicitly set knobs are
// never silently adjusted — an inconsistent explicit cascade is an
// ErrBadOptions.
func (ix *Index) planFor(k int, o SearchOptions) (searchPlan, error) {
	if k < 1 {
		return searchPlan{}, badOptions("k must be >= 1, got %d", k)
	}
	if k > maxKnob {
		return searchPlan{}, badOptions("k = %d exceeds the limit %d", k, maxKnob)
	}
	for _, knob := range []struct {
		name string
		v    int
	}{{"alpha", o.Alpha}, {"beta", o.Beta}, {"gamma", o.Gamma}, {"max_candidates", o.MaxCandidates}} {
		if knob.v < 0 {
			return searchPlan{}, badOptions("%s must be >= 0, got %d", knob.name, knob.v)
		}
		if knob.v > maxKnob {
			return searchPlan{}, badOptions("%s = %d exceeds the limit %d", knob.name, knob.v, maxKnob)
		}
	}
	switch o.Ptolemaic {
	case PtolemaicDefault, PtolemaicOn, PtolemaicOff:
	default:
		return searchPlan{}, badOptions("unknown ptolemaic mode %d", o.Ptolemaic)
	}

	p := ix.params
	plan := searchPlan{ptolemaic: p.UsePtolemaic, maxCandidates: o.MaxCandidates}

	// Adaptive degradation: under overload the serving layer sets
	// Degrade, and a query that left the whole cascade unset runs the
	// "fast" preset's cascade (fastCascade — the preset table is the
	// single source of the clamps). A query that pins ANY cascade knob
	// has opted out: its explicit contract is honoured unchanged, which
	// also means Degrade can never turn a valid explicit cascade into
	// an invalid one.
	if o.Degrade && o.Alpha == 0 && o.Beta == 0 && o.Gamma == 0 {
		a, g := fastCascade(p, k)
		if a < p.Alpha || g < min(p.Gamma, p.Alpha) {
			o.Alpha, o.Gamma = a, g
			plan.degraded = true
		}
	}

	switch o.Ptolemaic {
	case PtolemaicOn:
		plan.ptolemaic = true
	case PtolemaicOff:
		plan.ptolemaic = false
	}
	plan.alpha = p.Alpha
	if o.Alpha > 0 {
		plan.alpha = o.Alpha
	}
	// Unset β resolves the way a fresh build would: β = α (§5.2.5's
	// default ratio) whenever α was overridden or the filter it feeds
	// is off — an inherited built β must not strangle an explicit γ
	// that a rebuild with these knobs would happily accept. Only a
	// build-time β on a Ptolemaic index at the built α survives
	// inheritance.
	plan.beta = min(p.Beta, plan.alpha)
	if o.Alpha > 0 || !plan.ptolemaic {
		plan.beta = plan.alpha
	}
	if o.Beta > 0 {
		plan.beta = o.Beta
	}
	plan.gamma = min(p.Gamma, plan.beta)
	if o.Gamma > 0 {
		plan.gamma = o.Gamma
	}

	// An explicit cascade must narrow on its own: requesting γ wider
	// than α is a contradiction, not something to paper over.
	if plan.beta > plan.alpha {
		return searchPlan{}, badOptions("filter cascade must narrow: beta=%d > alpha=%d", plan.beta, plan.alpha)
	}
	if plan.gamma > plan.beta {
		return searchPlan{}, badOptions("filter cascade must narrow: gamma=%d > beta=%d", plan.gamma, plan.beta)
	}
	// Explicitly chosen knobs must be able to yield k results; inherited
	// defaults are exempt so a small built index never starts rejecting
	// the ks it always answered (with fewer candidates, as before).
	if o.Alpha > 0 && o.Alpha < k {
		return searchPlan{}, badOptions("alpha=%d < k=%d", o.Alpha, k)
	}
	if o.Gamma > 0 && o.Gamma < k {
		return searchPlan{}, badOptions("gamma=%d < k=%d", o.Gamma, k)
	}
	if o.MaxCandidates > 0 && o.MaxCandidates < k {
		return searchPlan{}, badOptions("max_candidates=%d < k=%d", o.MaxCandidates, k)
	}
	return plan, nil
}
