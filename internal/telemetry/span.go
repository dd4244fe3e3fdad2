package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Phase identifies one stage of the query pipeline. The order follows
// the execution order in core's Query.
type Phase int

const (
	// PhaseTreeWalk covers reference-distance computation plus the
	// per-tree Hilbert range retrieval and lower-bound filtering.
	PhaseTreeWalk Phase = iota
	// PhaseCandidateSort covers candidate union, dedup, truncation and
	// the ID sort that makes refinement I/O sequential.
	PhaseCandidateSort
	// PhaseRefine covers exact-distance refinement against raw vectors
	// through the buffer pool.
	PhaseRefine
	// PhaseMemtableScan covers the brute-force scan of vectors not yet
	// compacted into the trees.
	PhaseMemtableScan
	// PhaseTopKMerge covers draining the top-k heap and building the
	// result slice.
	PhaseTopKMerge

	numPhases
)

// NumPhases is the number of query phases a Span can attribute time to.
const NumPhases = int(numPhases)

var phaseNames = [NumPhases]string{
	"tree_walk",
	"candidate_sort",
	"refine",
	"memtable_scan",
	"topk_merge",
}

// String returns the snake_case phase name used in stats JSON, the
// slow-query log, and Prometheus labels.
func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseNS holds per-phase elapsed nanoseconds, indexed by Phase. It is
// a plain value: copy and add freely.
type PhaseNS [NumPhases]int64

// Add accumulates other into p (for merging per-shard stats).
func (p *PhaseNS) Add(other PhaseNS) {
	for i := range p {
		p[i] += other[i]
	}
}

// Total returns the sum over all phases.
func (p PhaseNS) Total() int64 {
	var t int64
	for _, v := range p {
		t += v
	}
	return t
}

// maxWireNS bounds a phase's nanoseconds on the wire: below 2^51 ns (26
// days) the microsecond figure MarshalJSON writes rounds back to every
// nanosecond, at and past it it does not.
const maxWireNS = 1 << 51

// MarshalJSON writes the stats JSON's phase_us block: microseconds
// (ns/1e3) keyed by phase name.
func (p PhaseNS) MarshalJSON() ([]byte, error) {
	us := make(map[string]float64, NumPhases)
	for i, ns := range p {
		us[phaseNames[i]] = float64(ns) / 1e3
	}
	return json.Marshal(us)
}

// UnmarshalJSON reads a phase_us block back to nanoseconds, undoing
// MarshalJSON's division exactly. A phase the block does not name is 0,
// a name that is no phase is ignored, and a phase of maxWireNS or more
// is an error.
func (p *PhaseNS) UnmarshalJSON(b []byte) error {
	var us map[string]float64
	if err := json.Unmarshal(b, &us); err != nil {
		return err
	}
	for i, name := range phaseNames {
		ns := math.Round(us[name] * 1e3)
		if math.Abs(ns) >= maxWireNS {
			return fmt.Errorf("telemetry: phase %s of %g µs is out of range", name, us[name])
		}
		p[i] = int64(ns)
	}
	return nil
}

// Span attributes wall time to pipeline phases. Create one with
// StartSpan at the top of an operation and call Mark(phase) at each
// phase boundary: the time since the previous mark is charged to that
// phase.
type Span struct {
	last time.Time
	NS   PhaseNS
}

// StartSpan begins a span at the current time.
func StartSpan() Span { return Span{last: time.Now()} }

// Mark charges the time since the previous mark (or span start) to
// phase and restarts the clock.
func (s *Span) Mark(phase Phase) {
	now := time.Now()
	s.NS[phase] += now.Sub(s.last).Nanoseconds()
	s.last = now
}
