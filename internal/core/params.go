// Package core implements HD-Index itself: construction (Algorithm 1)
// and kANN querying (Algorithm 2) over τ RDB-trees, one per contiguous
// dimension partition, with triangular and Ptolemaic filtering against m
// reference objects.
package core

import "fmt"

// Curve selects the space-filling curve used for the one-dimensional
// ordering. The paper uses Hilbert ([37]: "most appropriate for
// indexing"); Z-order is provided for the ablation benchmarks.
type Curve string

// Supported curves.
const (
	CurveHilbert Curve = "hilbert"
	CurveZOrder  Curve = "zorder"
)

// RefSelection names a reference-object selection strategy (§3.3, Fig. 10).
type RefSelection string

// Supported selection strategies.
const (
	RefSSS    RefSelection = "sss"
	RefSSSDyn RefSelection = "sss-dyn"
	RefRandom RefSelection = "random"
)

// Params configures index construction and querying. Zero values are
// replaced by the paper's recommendations in SetDefaults.
type Params struct {
	Tau   int // number of partitions/RDB-trees τ (§5.2.4: 8; 16 for ν ≥ 500)
	Omega int // Hilbert curve order ω (§3.4, Table 3)
	M     int // reference objects m (§5.2.3: 10)

	Alpha int // candidates fetched per tree (§5.2.6: 4096; 8192 for very large datasets)
	Beta  int // survivors of the triangular filter (§5.2.5: = α when Ptolemaic is on)
	Gamma int // survivors of the Ptolemaic filter (§5.2.6: α/4)

	// UsePtolemaic enables the second, tighter filter. The paper's
	// default is OFF for wall-clock efficiency (§5.2.5): triangular-only
	// filtering then reduces α directly to γ.
	UsePtolemaic bool

	RefSelection RefSelection // default SSS

	Curve     Curve // default Hilbert
	PageSize  int   // default 4096 (the paper's B)
	PoolPages int   // buffer-pool pages per file, pooled across the index's files; default 256
	// DisableCache turns the buffer pool off so every page touch is a
	// physical read — the paper's "caching effects off" protocol (§5).
	// Runtime-only: Open takes it from OpenOptions, so meta.json
	// leaves it out.
	DisableCache bool `json:"-"`

	// MemtableMaxVectors is the live-ingest compaction threshold
	// (ingest.go; 0 = 4096). Runtime-only: excluded from meta.json.
	MemtableMaxVectors int `json:"-"`

	Seed int64
}

// SetDefaults fills unset fields with the paper's recommended values for
// a dataset of dimensionality nu and size n.
func (p *Params) SetDefaults(nu, n int) {
	if p.Tau == 0 {
		preferred := 8
		if nu >= 500 {
			preferred = 16
		}
		p.Tau = ChooseTau(nu, preferred)
	}
	if p.Omega == 0 {
		p.Omega = 16
	}
	if p.M == 0 {
		p.M = 10
	}
	if p.Alpha == 0 {
		p.Alpha = 4096
		if n >= 1_000_000 {
			p.Alpha = 8192
		}
		if p.Alpha > n && n > 0 {
			p.Alpha = n
		}
	}
	if p.Beta == 0 {
		p.Beta = p.Alpha // α/β = 1 (§5.2.5)
	}
	if p.Gamma == 0 {
		p.Gamma = p.Alpha / 4 // α/γ = 4 (§5.2.6)
		if p.Gamma < 1 {
			p.Gamma = p.Alpha
		}
	}
	if p.RefSelection == "" {
		p.RefSelection = RefSSS
	}
	if p.Curve == "" {
		p.Curve = CurveHilbert
	}
	if p.PageSize == 0 {
		p.PageSize = 4096
	}
	if p.PoolPages == 0 {
		p.PoolPages = 256
	}
}

// Validate reports configuration errors for a dataset of dimensionality nu.
func (p *Params) Validate(nu int) error {
	if nu < 1 {
		return fmt.Errorf("core: dimensionality must be >= 1, got %d", nu)
	}
	if p.Tau < 1 {
		return fmt.Errorf("core: tau must be >= 1, got %d", p.Tau)
	}
	if nu%p.Tau != 0 {
		return fmt.Errorf("core: tau = %d does not divide dimensionality %d", p.Tau, nu)
	}
	if p.Omega < 1 || p.Omega > 32 {
		return fmt.Errorf("core: omega must be in [1,32], got %d", p.Omega)
	}
	if p.M < 1 {
		return fmt.Errorf("core: m must be >= 1, got %d", p.M)
	}
	if p.PoolPages < 0 {
		return fmt.Errorf("core: pool pages must be >= 0, got %d", p.PoolPages)
	}
	if p.MemtableMaxVectors < 0 {
		return fmt.Errorf("core: memtable max vectors must be >= 0, got %d", p.MemtableMaxVectors)
	}
	if p.Alpha < 1 || p.Beta < 1 || p.Gamma < 1 {
		return fmt.Errorf("core: alpha/beta/gamma must be >= 1, got %d/%d/%d", p.Alpha, p.Beta, p.Gamma)
	}
	if p.Beta > p.Alpha || p.Gamma > p.Beta {
		return fmt.Errorf("core: filter cascade must narrow: alpha=%d >= beta=%d >= gamma=%d", p.Alpha, p.Beta, p.Gamma)
	}
	switch p.Curve {
	case CurveHilbert, CurveZOrder:
	default:
		return fmt.Errorf("core: unknown curve %q", p.Curve)
	}
	switch p.RefSelection {
	case RefSSS, RefSSSDyn, RefRandom:
	default:
		return fmt.Errorf("core: unknown reference selection %q", p.RefSelection)
	}
	return nil
}

// ChooseTau picks the divisor of nu whose per-curve dimensionality η is
// closest to nu/preferred — the rule that reproduces the paper's choices:
// ν=128→8, 192→8, 512→16, 100→10, 1369→37 (§5.2.4).
func ChooseTau(nu, preferred int) int {
	if preferred < 1 {
		preferred = 8
	}
	targetEta := float64(nu) / float64(preferred)
	best, bestDiff := 1, float64(nu) // tau=1 => eta=nu
	for tau := 1; tau <= nu; tau++ {
		if nu%tau != 0 {
			continue
		}
		eta := float64(nu / tau)
		diff := eta - targetEta
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = tau, diff
		}
	}
	return best
}
