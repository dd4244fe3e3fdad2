package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// p99CacheTTL bounds how often a hot path pays for a histogram
	// snapshot; between recomputes P99NS reads two atomics.
	p99CacheTTL = 250 * time.Millisecond
	// p99Window is how far back the latency window reaches. Long
	// enough to smooth bursts, short enough that recovery from an
	// incident is visible within seconds.
	p99Window = 10 * time.Second
)

// WindowedP99 is a latency histogram with a cheap, recent p99: the
// estimator behind admission's pressure signal and the coordinator's
// adaptive hedge delay. Observe into the embedded Histogram; P99NS
// answers from a cache refreshed at most every p99CacheTTL, over the
// observations since a baseline snapshot that rolls forward every
// p99Window. Construct with NewWindowedP99; must not be copied.
type WindowedP99 struct {
	Histogram
	now func() time.Time

	mu      sync.Mutex // serialises recomputes; guards winSnap, winAt
	winSnap Snapshot
	winAt   time.Time
	last    atomic.Uint64 // cached p99, nanoseconds
	lastAt  atomic.Int64  // unixnano of the last recompute
}

// NewWindowedP99 returns an empty estimator reading time from now.
func NewWindowedP99(now func() time.Time) *WindowedP99 {
	return &WindowedP99{now: now}
}

// P99NS returns the windowed p99 of the observed values in
// nanoseconds; 0 before the first observation. A window with no
// observations falls back to the all-time distribution.
func (w *WindowedP99) P99NS() float64 {
	now := w.now()
	if now.UnixNano()-w.lastAt.Load() < int64(p99CacheTTL) {
		return float64(w.last.Load())
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if now.UnixNano()-w.lastAt.Load() < int64(p99CacheTTL) {
		return float64(w.last.Load())
	}
	cur := w.Snapshot()
	win := cur.Sub(w.winSnap)
	if win.Count == 0 {
		win = cur
	}
	p := win.Quantile(0.99)
	if w.winAt.IsZero() || now.Sub(w.winAt) >= p99Window {
		w.winSnap = cur
		w.winAt = now
	}
	w.last.Store(uint64(p))
	w.lastAt.Store(now.UnixNano())
	return p
}
