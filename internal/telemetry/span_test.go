package telemetry

import (
	"testing"
	"time"
)

func TestSpanMarks(t *testing.T) {
	s := StartSpan()
	time.Sleep(2 * time.Millisecond)
	s.Mark(PhaseTreeWalk)
	time.Sleep(1 * time.Millisecond)
	s.Mark(PhaseRefine)
	if s.NS[PhaseTreeWalk] < int64(time.Millisecond) {
		t.Fatalf("tree walk %dns, want >= 1ms", s.NS[PhaseTreeWalk])
	}
	if s.NS[PhaseRefine] <= 0 {
		t.Fatalf("refine %dns, want > 0", s.NS[PhaseRefine])
	}
	if s.NS[PhaseCandidateSort] != 0 || s.NS[PhaseMemtableScan] != 0 || s.NS[PhaseTopKMerge] != 0 {
		t.Fatalf("unmarked phases nonzero: %v", s.NS)
	}
	if s.NS.Total() != s.NS[PhaseTreeWalk]+s.NS[PhaseRefine] {
		t.Fatalf("total mismatch: %v", s.NS)
	}
}

func TestPhaseNames(t *testing.T) {
	want := map[Phase]string{
		PhaseTreeWalk:      "tree_walk",
		PhaseCandidateSort: "candidate_sort",
		PhaseRefine:        "refine",
		PhaseMemtableScan:  "memtable_scan",
		PhaseTopKMerge:     "topk_merge",
		Phase(99):          "unknown",
	}
	for p, name := range want {
		if got := p.String(); got != name {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, name)
		}
	}
}

func TestPhaseNSAdd(t *testing.T) {
	a := PhaseNS{1, 2, 3, 4, 5}
	a.Add(PhaseNS{10, 20, 30, 40, 50})
	if a != (PhaseNS{11, 22, 33, 44, 55}) {
		t.Fatalf("Add = %v", a)
	}
	if a.Total() != 165 {
		t.Fatalf("Total = %d", a.Total())
	}
}

func TestCollectorObserveAndMerge(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	a.ObserveQuery(2*time.Millisecond, PhaseNS{1000, 0, 2000, 0, 500})
	b.ObserveQuery(4*time.Millisecond, PhaseNS{3000, 100, 0, 50, 0})
	a.ObserveWALSync(time.Millisecond)
	sa := a.Snapshot()
	sa.Merge(b.Snapshot())
	if sa.Query.Count != 2 {
		t.Fatalf("merged query count = %d, want 2", sa.Query.Count)
	}
	if sa.WALSync.Count != 1 {
		t.Fatalf("merged wal sync count = %d, want 1", sa.WALSync.Count)
	}
	// Zero-valued phases are skipped; both observed tree_walk.
	if sa.Phase[PhaseTreeWalk].Count != 2 {
		t.Fatalf("tree_walk count = %d, want 2", sa.Phase[PhaseTreeWalk].Count)
	}
	if sa.Phase[PhaseCandidateSort].Count != 1 {
		t.Fatalf("candidate_sort count = %d, want 1", sa.Phase[PhaseCandidateSort].Count)
	}
}
