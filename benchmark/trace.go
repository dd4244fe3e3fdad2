package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one call the driver made into the program. Spans of one
// operation (say a coordinator round trip and the direct shard round
// trips timed for the same vector) share Op; Parent is the id of the
// span that caused this one, -1 for a root. Attrs carries what the
// program reported about the call (phase nanoseconds, counters).
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Op      int64              `json:"op"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer is the untraced run: every method is a single branch.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, op int64, start time.Time, d time.Duration, attrs map[string]float64) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: s, EndNS: s + d.Nanoseconds(), Attrs: attrs})
	return id
}

// open starts a span that encloses others (a pass, a phase); close it
// with finish.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, 0, time.Now(), 0, nil)
}

func (t *tracer) finish(id int) {
	if t == nil || id < 0 {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = end
	t.mu.Unlock()
}

func (t *tracer) write(path string, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
