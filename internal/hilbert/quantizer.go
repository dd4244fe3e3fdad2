package hilbert

// Quantizer maps real-valued vectors onto the integer grid a space-filling
// curve is defined over. The order ω of the curve decides the grid
// resolution: each dimension is divided into 2^ω equal cells (§3.1). The
// paper picks ω per dataset so that quantisation loses little information
// relative to the domain of the descriptor values (§3.4, Table 3).
type Quantizer struct {
	lo, hi []float32 // per-dimension domain
	scale  []float64 // (2^order - 1) / (hi - lo), 0 for degenerate dims
	maxv   uint32
}

// NewQuantizer returns a Quantizer for the per-dimension domain [lo, hi]
// at the given curve order. Dimensions with hi <= lo map to cell 0.
func NewQuantizer(lo, hi []float32, order int) *Quantizer {
	if len(lo) != len(hi) {
		panic("hilbert: lo/hi length mismatch")
	}
	q := &Quantizer{
		lo:    lo,
		hi:    hi,
		scale: make([]float64, len(lo)),
		maxv:  maxCoord(order),
	}
	for d := range lo {
		if hi[d] > lo[d] {
			q.scale[d] = float64(q.maxv) / (float64(hi[d]) - float64(lo[d]))
		}
	}
	return q
}

// Coords writes the grid cell of v (or of a dims-length slice of it) into
// dst and returns dst. Out-of-domain values are clamped: queries may fall
// outside the indexed domain and must still map onto the grid.
func (q *Quantizer) Coords(dst []uint32, v []float32) []uint32 {
	if len(v) != len(q.lo) {
		panic("hilbert: vector length mismatch")
	}
	if dst == nil {
		dst = make([]uint32, len(v))
	}
	for d, x := range v {
		if q.scale[d] == 0 || x <= q.lo[d] {
			dst[d] = 0
			continue
		}
		if x >= q.hi[d] {
			dst[d] = q.maxv
			continue
		}
		c := (float64(x) - float64(q.lo[d])) * q.scale[d]
		u := uint32(c + 0.5)
		if u > q.maxv {
			u = q.maxv
		}
		dst[d] = u
	}
	return dst
}
