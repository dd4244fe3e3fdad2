package core

import "fmt"

// Preset names a first-class quality level of the filter cascade. A
// preset is nothing but a resolved option set: the serving layer maps
// the name to explicit α/γ overrides against the built parameters, so a
// request carrying a preset is bit-identical to the same request
// carrying the preset's knobs spelled out. The table is the single
// source of truth for every quality tier in the system — the serving
// layer's overload degradation runs the "fast" preset, and per-tenant
// tiers (internal/slo) name rows of this table.
type Preset string

// The named presets.
const (
	// PresetExact is the widest cascade: α quadrupled and every leaf
	// candidate refined (γ = α). The most expensive operating point; the
	// SLO tuner's job is to beat its latency while holding the target.
	PresetExact Preset = "exact"
	// PresetBalanced is the built parameters unchanged — what a request
	// with no overrides has always run.
	PresetBalanced Preset = "balanced"
	// PresetFast is the cheap cascade: α and γ lowered toward a quarter
	// of the built values (floored at 64/16 and at k), and never wider
	// than balanced's. It is the cascade the serving layer's overload
	// degradation switches unpinned queries to.
	PresetFast Preset = "fast"
	// PresetAuto delegates the choice to the serving layer: the SLO
	// tuner's current operating point when a tuner is running, the
	// built parameters otherwise, and the fast preset under overload
	// pressure. Core cannot resolve it — Options returns an error.
	PresetAuto Preset = "auto"
)

// ParsePreset validates a preset name from a request or a config file.
func ParsePreset(s string) (Preset, error) {
	switch p := Preset(s); p {
	case PresetExact, PresetBalanced, PresetFast, PresetAuto:
		return p, nil
	}
	return "", fmt.Errorf("%w: unknown preset %q (want exact, balanced, fast, or auto)", ErrBadOptions, s)
}

// exactFactor widens α for the exact preset; γ = α refines everything.
const exactFactor = 4

// fastCascade is THE cheap cascade: α and γ toward a quarter of the
// built values, floored (64 leaf candidates, 16 refined) so a small
// built index is not strangled, and clamped up to k so the query can
// still return k results. A knob is set only where that lowers it below
// what balanced resolves to, so the cascade is never widened past
// balanced's; where nothing can be lowered it is the zero options,
// which run balanced itself. β is the exception that proves the rule:
// a lowered α resets an unset β to it, which on a Ptolemaic build of
// β below that α would widen the filter, so there β stays balanced's.
func fastCascade(p Params, k int) (SearchOptions, error) {
	balanced, err := p.planFor(k, SearchOptions{})
	if err != nil {
		return SearchOptions{}, err
	}
	var o SearchOptions
	alpha := max(p.Alpha/4, 64, k)
	if alpha < balanced.alpha {
		o.Alpha = alpha
		if balanced.ptolemaic && balanced.beta < alpha {
			o.Beta = balanced.beta
		}
	}
	if gamma := min(max(p.Gamma/4, 16, k), alpha); gamma < balanced.gamma {
		o.Gamma = gamma
	}
	return o, nil
}

// Options resolves the preset against the built parameters for a query
// asking k neighbours, returning the explicit option set the preset
// stands for. The returned options go through exactly the same
// validation as hand-written knobs, which is what makes a preset
// request bit-identical to its expansion. PresetAuto has no fixed
// expansion (the serving layer resolves it) and returns ErrBadOptions.
func (p Preset) Options(built Params, k int) (SearchOptions, error) {
	if k < 1 {
		return SearchOptions{}, badOptions("k must be >= 1, got %d", k)
	}
	switch p {
	case PresetBalanced:
		return SearchOptions{}, nil
	case PresetFast:
		return fastCascade(built, k)
	case PresetExact:
		a := min(built.Alpha*exactFactor, maxKnob)
		a = max(a, k)
		return SearchOptions{Alpha: a, Gamma: a}, nil
	case PresetAuto:
		return SearchOptions{}, badOptions("preset %q is resolved by the serving layer, not the index", p)
	}
	return SearchOptions{}, badOptions("unknown preset %q", string(p))
}
