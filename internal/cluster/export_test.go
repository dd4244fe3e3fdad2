package cluster

import (
	"testing"
	"time"
)

// SetClock replaces the clock of c's hedge window. Call it before c
// serves its first request.
func SetClock(c *Coordinator, now func() time.Time) { c.now = now }

// SetMaxReplyBytes lowers the shard-reply cap for the rest of t. Call
// it before starting the coordinator it applies to: the cap comes back
// after the cleanups registered later, which stop every reader.
func SetMaxReplyBytes(t testing.TB, n int64) {
	old := maxReplyBytes
	maxReplyBytes = n
	t.Cleanup(func() { maxReplyBytes = old })
}
