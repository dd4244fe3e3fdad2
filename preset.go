package hdindex

import "github.com/hd-index/hdindex/internal/core"

// Preset names a first-class quality level of the filter cascade —
// "exact", "balanced", "fast", or "auto". A preset is nothing but a
// resolved option set against the built parameters: a request carrying
// a preset is bit-identical to the same request with the preset's
// knobs spelled out. See core's preset table for the semantics; "auto"
// is resolved by the serving layer (the SLO tuner / degradation), not
// here.
type Preset = core.Preset

// The named presets, re-exported for callers of PresetOptions.
const (
	PresetExact    = core.PresetExact
	PresetBalanced = core.PresetBalanced
	PresetFast     = core.PresetFast
	PresetAuto     = core.PresetAuto
)

// ParsePreset validates a preset name from a request or config file;
// unknown names are ErrBadOptions.
func ParsePreset(s string) (Preset, error) { return core.ParsePreset(s) }

// PresetOptions resolves a named preset against this index's built
// parameters for a query asking k neighbours, returning the explicit
// per-query options the preset stands for (the zero options for
// "balanced" — the built defaults); pass them with WithOptions.
// PresetAuto has no fixed expansion and returns ErrBadOptions; the
// serving layer resolves it through the tuner.
func (i *Index) PresetOptions(p Preset, k int) (SearchOptions, error) {
	return p.Options(i.shards[0].Params(), k)
}
