// Package slo closes the loop between HD-Index's recall/latency
// frontier and the serving layer. A Frontier holds measured operating
// points (α/γ pairs with their recall and latency), loaded from an
// `hdbench -sweep` artifact at startup and refreshed by live
// re-measurement; a Tuner picks the cheapest point that satisfies an
// SLO target and keeps re-picking as the frontier moves; TierConfig
// maps tenants to named quality presets and admission shares.
package slo

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/hd-index/hdindex/internal/atomicfile"
)

// ErrBadFrontier reports a frontier artifact that cannot be used: wrong
// format version, no points, or a point with nonsensical fields.
var ErrBadFrontier = errors.New("slo: bad frontier")

// FrontierFormatVersion is bumped when the artifact layout changes
// incompatibly; the loader rejects versions it does not know.
const FrontierFormatVersion = 1

// Point is one measured operating point on the recall/latency
// frontier: the explicit cascade it stands for and what running it
// cost. Points come from `hdbench -sweep` (ground-truth recall against
// brute force) and from live re-measurement (proxy recall against the
// widest grid point, EWMA-blended latencies).
type Point struct {
	// Alpha and Gamma are the explicit per-query overrides this point
	// applies — the same values a request could spell out by hand.
	Alpha int `json:"alpha"`
	Gamma int `json:"gamma"`
	// MeanQueryUS and P99QueryUS are per-query wall latencies in
	// microseconds at this operating point.
	MeanQueryUS float64 `json:"mean_query_us"`
	P99QueryUS  float64 `json:"p99_query_us"`
	// Recall is k-NN recall in [0,1] at this point.
	Recall float64 `json:"recall"`
	// MAP is mean average precision, carried for display only.
	MAP float64 `json:"map,omitempty"`
	// CandidatesPerQuery is the mean refined-candidate count, carried
	// for display only.
	CandidatesPerQuery float64 `json:"candidates_per_query,omitempty"`
	// Live marks a point whose numbers come from live re-measurement
	// rather than an offline sweep.
	Live bool `json:"live,omitempty"`
}

func (p Point) validate() error {
	if p.Alpha < 1 {
		return fmt.Errorf("%w: point alpha must be >= 1, got %d", ErrBadFrontier, p.Alpha)
	}
	if p.Gamma < 1 || p.Gamma > p.Alpha {
		return fmt.Errorf("%w: point gamma=%d must be in [1, alpha=%d]", ErrBadFrontier, p.Gamma, p.Alpha)
	}
	if p.Recall < 0 || p.Recall > 1 {
		return fmt.Errorf("%w: recall %v outside [0,1]", ErrBadFrontier, p.Recall)
	}
	if p.MeanQueryUS < 0 || p.P99QueryUS < 0 {
		return fmt.Errorf("%w: negative latency on point alpha=%d", ErrBadFrontier, p.Alpha)
	}
	return nil
}

// Frontier is a set of measured operating points for one built index,
// kept sorted by ascending α (cost order). It is an immutable value:
// refreshers build a new Frontier and swap it in.
type Frontier struct {
	// FormatVersion pins the artifact layout.
	FormatVersion int `json:"format_version"`
	// Dataset names the dataset the sweep ran on, for display.
	Dataset string `json:"dataset,omitempty"`
	// K is the neighbour count the sweep measured recall at.
	K int `json:"k,omitempty"`
	// Points are the measured operating points, ascending α.
	Points []Point `json:"points"`
}

// Validate checks the frontier is usable and normalises point order.
func (f *Frontier) Validate() error {
	if f.FormatVersion != FrontierFormatVersion {
		return fmt.Errorf("%w: format_version %d (this build reads %d)",
			ErrBadFrontier, f.FormatVersion, FrontierFormatVersion)
	}
	if len(f.Points) == 0 {
		return fmt.Errorf("%w: no points", ErrBadFrontier)
	}
	for _, p := range f.Points {
		if err := p.validate(); err != nil {
			return err
		}
	}
	sort.SliceStable(f.Points, func(i, j int) bool {
		if f.Points[i].Alpha != f.Points[j].Alpha {
			return f.Points[i].Alpha < f.Points[j].Alpha
		}
		return f.Points[i].Gamma < f.Points[j].Gamma
	})
	return nil
}

// Widest returns the highest-cost point — the tuner's recall proxy
// ground truth during live re-measurement. Callers must have a
// validated, non-empty frontier.
func (f *Frontier) Widest() Point { return f.Points[len(f.Points)-1] }

// ReadFrontier loads and validates a frontier artifact written by
// `hdbench -sweep -sweep-out` (or WriteFrontier).
func ReadFrontier(path string) (*Frontier, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("slo: read frontier: %w", err)
	}
	var f Frontier
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrontier, err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// WriteFrontier validates and writes the artifact, replacing path
// atomically and durably (atomicfile) so neither a crashed writer nor a
// power loss leaves a torn or empty file for the tuner to load.
func WriteFrontier(path string, f *Frontier) error {
	if err := f.Validate(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("slo: encode frontier: %w", err)
	}
	raw = append(raw, '\n')
	if err := atomicfile.WriteFile(filepath.Dir(path), filepath.Base(path), raw); err != nil {
		return fmt.Errorf("slo: write frontier: %w", err)
	}
	return nil
}
