package telemetry

import (
	"testing"
	"time"
)

// TestWindowedP99 drives the estimator on a fake clock: TTL caching,
// the quiet-window fallback, and the window roll.
func TestWindowedP99(t *testing.T) {
	now := time.Unix(1000, 0)
	w := NewWindowedP99(func() time.Time { return now })
	near := func(got float64, want time.Duration) bool {
		return got >= float64(want)*0.96 && got <= float64(want)*1.04 // bucket resolution is 3.125%
	}

	if got := w.P99NS(); got != 0 {
		t.Fatalf("empty estimator p99 = %v, want 0", got)
	}

	// TTL caching: observations inside the TTL are invisible, then seen.
	now = now.Add(p99CacheTTL)
	for i := 0; i < 100; i++ {
		w.ObserveDuration(10 * time.Millisecond)
	}
	if got := w.P99NS(); !near(got, 10*time.Millisecond) {
		t.Fatalf("p99 = %v, want ~10ms", got)
	}
	for i := 0; i < 100; i++ {
		w.ObserveDuration(80 * time.Millisecond)
	}
	now = now.Add(p99CacheTTL - time.Nanosecond)
	if got := w.P99NS(); !near(got, 10*time.Millisecond) {
		t.Fatalf("p99 inside the cache TTL = %v, want the cached ~10ms", got)
	}
	now = now.Add(time.Nanosecond)
	if got := w.P99NS(); !near(got, 80*time.Millisecond) {
		t.Fatalf("p99 after the cache TTL = %v, want ~80ms", got)
	}

	// Window roll: the baseline was taken at the first recompute (an
	// empty snapshot), so until p99Window has passed the window is
	// all-time. This recompute is the first at or past it, and moves
	// the baseline to "now".
	now = now.Add(p99Window)
	if got := w.P99NS(); !near(got, 80*time.Millisecond) {
		t.Fatalf("p99 at the window roll = %v, want ~80ms", got)
	}
	// Only what arrives after the roll counts: a burst of fast
	// observations is the whole window, the 80ms tail has aged out.
	for i := 0; i < 100; i++ {
		w.ObserveDuration(2 * time.Millisecond)
	}
	now = now.Add(p99CacheTTL)
	if got := w.P99NS(); !near(got, 2*time.Millisecond) {
		t.Fatalf("p99 after the window rolled = %v, want ~2ms (old tail aged out)", got)
	}

	// Quiet window: roll again with nothing new since, then ask — an
	// empty window falls back to the all-time distribution instead of
	// reporting 0.
	now = now.Add(p99Window)
	w.P99NS()
	now = now.Add(p99CacheTTL)
	if got := w.P99NS(); !near(got, 80*time.Millisecond) {
		t.Fatalf("p99 over a quiet window = %v, want the all-time ~80ms", got)
	}
}
