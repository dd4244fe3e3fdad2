package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/shard"
	"github.com/hd-index/hdindex/internal/telemetry"
)

// IngestResult is one dataset's mixed insert/search row: write
// throughput down the WAL-durable path, the same writes down the
// per-request-flush path (the durability discipline live inserts had
// before the WAL), read latency while writes are in flight, and the
// staleness bound the memtable imposed.
type IngestResult struct {
	Dataset string `json:"dataset"`
	N       int    `json:"n"`
	Dim     int    `json:"dim"`
	Writers int    `json:"writers"`
	Inserts int    `json:"inserts"`
	// InsertQPS is acknowledged-durable inserts/s through the WAL's
	// group commit, Writers concurrent clients.
	InsertQPS float64 `json:"insert_qps"`
	// InsertP50/P95/P99US are per-insert acknowledge-latency percentiles
	// across the pure write storm, recorded into a telemetry histogram by
	// the writer goroutines (estimates within 3.125%). The tail shows the
	// group-commit convoy the mean hides.
	InsertP50US float64 `json:"insert_p50_us,omitempty"`
	InsertP95US float64 `json:"insert_p95_us,omitempty"`
	InsertP99US float64 `json:"insert_p99_us,omitempty"`
	// FlushInsertQPS is the same durability bought the old way: a full
	// index Flush after every insert. Measured over FlushInserts writes
	// (the path is orders of magnitude slower; equal counts would
	// dominate the benchmark's wall clock).
	FlushInserts   int     `json:"flush_inserts"`
	FlushInsertQPS float64 `json:"flush_insert_qps"`
	SpeedupX       float64 `json:"speedup_x"`
	// QueryUSUnderWrites is mean single-query latency with the writers
	// running — reads taxed by WAL appends and memtable scans.
	QueryUSUnderWrites float64 `json:"query_us_under_writes"`
	QueriesUnderWrites int     `json:"queries_under_writes"`
	// MemtablePeakVectors is the largest memtable observed during the
	// storm: the realized staleness bound (how many acknowledged writes
	// a query may see via brute-force scan instead of the trees).
	MemtablePeakVectors int `json:"memtable_peak_vectors"`
	// Compactions and WALSyncs describe the background machinery's
	// activity across the storm; Inserts/WALSyncs is the group-commit
	// batching factor.
	Compactions uint64 `json:"compactions"`
	WALSyncs    int64  `json:"wal_syncs"`
}

// ingestWriters is the fixed concurrent writer count, fixed (like
// snapshotParallelClients) so snapshots stay machine-comparable.
const ingestWriters = 8

// insertVector derives the i-th storm vector: deterministic, distinct,
// and inside the dataset's value range so tree key distribution stays
// realistic.
func insertVector(dim, i int, base []float32) []float32 {
	v := make([]float32, dim)
	for d := range v {
		v[d] = base[d] + float32((i*31+d*7)%101)/101*0.01
	}
	return v
}

// stormWrite drives ingestWriters concurrent clients through count
// WAL-durable inserts starting at offset and returns the wall clock.
// When hist is non-nil every insert's acknowledge latency is recorded
// into it (telemetry.Histogram is lock-free, so the writers don't
// serialize on the bookkeeping).
func stormWrite(ix *shard.Sharded, w *Workload, offset, count int, hist *telemetry.Histogram) (time.Duration, error) {
	var (
		next      atomic.Int64
		insertErr atomic.Value
		wg        sync.WaitGroup
	)
	n := len(w.Data.Vectors)
	t0 := time.Now()
	for c := 0; c < ingestWriters; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				t := time.Now()
				if _, err := ix.Insert(insertVector(w.Data.Dim, offset+i, w.Data.Vectors[(offset+i)%n])); err != nil {
					insertErr.Store(err)
					return
				}
				hist.ObserveDuration(time.Since(t))
			}
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	if err, ok := insertErr.Load().(error); ok && err != nil {
		return d, err
	}
	return d, nil
}

// snapshotIngest measures the live-ingest numbers for one dataset in
// three phases on fresh indexes: a pure write storm for WAL insert
// throughput, a mixed storm (writers + readers) for read latency under
// writes and the memtable staleness peak, and a flush-per-insert run —
// the durability discipline live inserts had before the WAL — for the
// old-path comparison. Throughputs come from the pure phases so neither
// path's number is taxed by concurrent readers.
func snapshotIngest(spec DataSpec, cfg Config) (IngestResult, error) {
	w := MakeWorkload(spec, cfg)
	n := len(w.Data.Vectors)
	out := IngestResult{Dataset: spec.Name, N: n, Dim: w.Data.Dim,
		Writers: ingestWriters, Inserts: cfg.Ingest}

	dir := filepath.Join(cfg.WorkDir, "snapshot-ingest", spec.Name)
	p := HDParams(spec, n)
	p.Seed = cfg.Seed
	// Size the memtable so the storm crosses it several times: the
	// measurement then includes background compactions, as production
	// would. The two storm phases write 2×Ingest vectors, spread
	// round-robin across the shards, and the threshold is per shard.
	perShard := 2 * cfg.Ingest
	if cfg.Shards > 1 {
		perShard /= cfg.Shards
	}
	p.MemtableMaxVectors = perShard / 4
	if p.MemtableMaxVectors < 64 {
		p.MemtableMaxVectors = 64
	}

	build := func() (*shard.Sharded, error) {
		return shard.Build(dir, w.Data.Vectors, shard.Params{Params: p, Shards: cfg.Shards})
	}

	// Phase 1: pure write storm — the WAL path's insert throughput.
	ix, err := build()
	if err != nil {
		return out, err
	}
	var insertHist telemetry.Histogram
	stormD, err := stormWrite(ix, w, 0, cfg.Ingest, &insertHist)
	if err != nil {
		ix.Close()
		return out, err
	}
	if d := stormD.Seconds(); d > 0 {
		out.InsertQPS = float64(cfg.Ingest) / d
	}
	if s := insertHist.Snapshot(); s.Count > 0 {
		out.InsertP50US = s.Quantile(0.50) / 1e3
		out.InsertP95US = s.Quantile(0.95) / 1e3
		out.InsertP99US = s.Quantile(0.99) / 1e3
	}

	// Phase 2: mixed storm on the same index — readers replay the query
	// set while the writers push another cfg.Ingest inserts, sampling
	// the memtable occupancy between queries.
	var (
		queryElapsed atomic.Int64 // summed nanoseconds
		queryCount   atomic.Int64
		peak         atomic.Int64
		readErr      atomic.Value
	)
	readersDone := make(chan struct{})
	var rwg sync.WaitGroup
	for c := 0; c < 2; c++ {
		rwg.Add(1)
		go func(c int) {
			defer rwg.Done()
			for qi := c; ; qi++ {
				select {
				case <-readersDone:
					return
				default:
				}
				q := w.Queries[qi%len(w.Queries)]
				t := time.Now()
				if _, _, err := ix.Query(context.Background(), q, w.K, core.SearchOptions{}); err != nil {
					readErr.Store(err)
					return
				}
				queryElapsed.Add(int64(time.Since(t)))
				queryCount.Add(1)
				if mv := int64(ix.IngestStats().MemtableVectors); mv > peak.Load() {
					peak.Store(mv)
				}
			}
		}(c)
	}
	_, werr := stormWrite(ix, w, cfg.Ingest, cfg.Ingest, nil)
	close(readersDone)
	rwg.Wait()
	if werr != nil {
		ix.Close()
		return out, werr
	}
	if err, ok := readErr.Load().(error); ok && err != nil {
		ix.Close()
		return out, err
	}
	if qc := queryCount.Load(); qc > 0 {
		out.QueryUSUnderWrites = float64(queryElapsed.Load()) / 1e3 / float64(qc)
		out.QueriesUnderWrites = int(qc)
	}
	out.MemtablePeakVectors = int(peak.Load())
	st := ix.IngestStats()
	out.Compactions = st.Compactions
	out.WALSyncs = st.WALSyncs
	if err := ix.Close(); err != nil {
		return out, err
	}

	// Phase 3: the old durability discipline — a full Flush after every
	// insert — over a capped write count (the path's slowness is the
	// reason the WAL exists; equal counts would dominate wall clock).
	out.FlushInserts = cfg.Ingest / 10
	if out.FlushInserts < 20 {
		out.FlushInserts = 20
	}
	ix, err = build()
	if err != nil {
		return out, err
	}
	defer ix.Close()
	t0 := time.Now()
	for i := 0; i < out.FlushInserts; i++ {
		if _, err := ix.Insert(insertVector(w.Data.Dim, i, w.Data.Vectors[i%n])); err != nil {
			return out, err
		}
		if err := ix.Flush(); err != nil {
			return out, err
		}
	}
	if d := time.Since(t0).Seconds(); d > 0 {
		out.FlushInsertQPS = float64(out.FlushInserts) / d
	}
	if out.FlushInsertQPS > 0 {
		out.SpeedupX = out.InsertQPS / out.FlushInsertQPS
	}
	return out, nil
}

// PrintIngest renders the mixed-workload rows in the snapshot's
// human-readable style.
func PrintIngest(rows []IngestResult) {
	fmt.Printf("\nmixed insert/search (%d writers, WAL group commit vs flush-per-insert):\n", ingestWriters)
	fmt.Printf("  %-10s %8s %12s %13s %16s %9s %14s %10s %12s\n",
		"dataset", "inserts", "insert_qps", "insert_p99_us", "flush_insert_qps", "speedup", "query_us(rw)", "mem_peak", "compactions")
	for _, r := range rows {
		fmt.Printf("  %-10s %8d %12.0f %13.1f %16.1f %8.1fx %14.1f %10d %12d\n",
			r.Dataset, r.Inserts, r.InsertQPS, r.InsertP99US, r.FlushInsertQPS, r.SpeedupX,
			r.QueryUSUnderWrites, r.MemtablePeakVectors, r.Compactions)
	}
}
