package telemetry

import "time"

// Collector bundles one index's operation histograms. core.Index owns
// one; shards each own their own and merge snapshots on read.
type Collector struct {
	// Query records whole-query wall time (single queries and each
	// query of a batch).
	Query Histogram
	// Insert records Insert wall time including WAL durability waits.
	Insert Histogram
	// Compaction records background compaction wall time.
	Compaction Histogram
	// WALSync records WAL fsync durations.
	WALSync Histogram
	// Phase records per-phase query durations, indexed by Phase.
	Phase [NumPhases]Histogram
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// ObserveQuery records one whole-query duration plus its per-phase
// breakdown.
func (c *Collector) ObserveQuery(d time.Duration, phases PhaseNS) {
	c.Query.ObserveDuration(d)
	for i := range c.Phase {
		// Phases the query never reached keep the histogram honest at
		// zero only if recorded; skip untouched phases instead so phase
		// counts reflect queries that exercised them.
		if phases[i] > 0 {
			c.Phase[i].Observe(phases[i])
		}
	}
}

// ObserveInsert records one insert duration.
func (c *Collector) ObserveInsert(d time.Duration) {
	c.Insert.ObserveDuration(d)
}

// ObserveCompaction records one compaction duration.
func (c *Collector) ObserveCompaction(d time.Duration) {
	c.Compaction.ObserveDuration(d)
}

// ObserveWALSync records one WAL fsync duration.
func (c *Collector) ObserveWALSync(d time.Duration) {
	c.WALSync.ObserveDuration(d)
}

// CollectorSnapshot is an immutable copy of a Collector's histograms,
// mergeable across shards.
type CollectorSnapshot struct {
	Query      Snapshot
	Insert     Snapshot
	Compaction Snapshot
	WALSync    Snapshot
	Phase      [NumPhases]Snapshot
}

// Snapshot copies every histogram.
func (c *Collector) Snapshot() CollectorSnapshot {
	var s CollectorSnapshot
	s.Query = c.Query.Snapshot()
	s.Insert = c.Insert.Snapshot()
	s.Compaction = c.Compaction.Snapshot()
	s.WALSync = c.WALSync.Snapshot()
	for i := range c.Phase {
		s.Phase[i] = c.Phase[i].Snapshot()
	}
	return s
}

// Merge adds other's counts into s.
func (s *CollectorSnapshot) Merge(other CollectorSnapshot) {
	s.Query.Merge(other.Query)
	s.Insert.Merge(other.Insert)
	s.Compaction.Merge(other.Compaction)
	s.WALSync.Merge(other.WALSync)
	for i := range s.Phase {
		s.Phase[i].Merge(other.Phase[i])
	}
}
