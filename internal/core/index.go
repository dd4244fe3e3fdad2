package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/hd-index/hdindex/internal/atomicfile"
	"github.com/hd-index/hdindex/internal/hilbert"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/telemetry"
	"github.com/hd-index/hdindex/internal/vecmath"
	"github.com/hd-index/hdindex/internal/vecstore"
	"github.com/hd-index/hdindex/internal/wal"
)

const metaFile = "meta.json"

// Index is an HD-Index on disk: τ RDB-trees plus the raw vector store
// they point into by slot (slots.go), fronted by a write-ahead log and
// an in-memory memtable of fresh vectors (ingest.go). Searches may run
// concurrently with each other; mu serialises them against the
// memtable/WAL mutations of Insert/Delete and against the compaction
// commit, which swaps the tree generation.
type Index struct {
	mu     sync.RWMutex
	dir    string
	params Params
	nu     int
	eta    int

	trees   []*rdbtree.Tree
	vectors *vecstore.Store
	slots   slotMap // id ↔ slot; the identity for an index without ids.pg

	refs     [][]float32 // the m reference vectors
	refCross [][]float64 // d(R_i, R_j), for the Ptolemaic bound
	lo, hi   []float32   // per-dimension quantiser domain

	curves  []hilbert.Curve      // one per partition
	quants  []*hilbert.Quantizer // one per partition
	deleted *deleteSet           // §3.6 deletion marks

	// Live-ingest state (ingest.go). mem holds acknowledged inserts not
	// yet compacted into the trees, in id order: entry i is id
	// vectors.Count()+i. gen numbers the current tree generation — the
	// compaction commit bumps it atomically through meta.json. All
	// guarded by mu; wal serialises its own file internally.
	wal      *wal.Log
	mem      [][]float32
	memOff   []int64 // WAL end-offset of mem[i]'s record (0 for replayed entries)
	gen      uint64
	replayed int // WAL records replayed by Open

	// Write-path failure state (failsafe.go): a WAL failure flips the
	// index read-only; walErr keeps the root cause for error messages.
	walFailed bool
	walErr    error

	// Background compactor plumbing; compactMu serialises Compact.
	// breakerOpen/compactConsecFails/compactFailures/lastCompactErr are
	// the compaction circuit breaker (failsafe.go), guarded by mu.
	compactMu          sync.Mutex
	compactCancel      context.CancelFunc
	compactDone        chan struct{}
	compactWake        chan struct{}
	compactions        uint64
	lastCompactMS      float64
	lastCompactN       int
	breakerOpen        bool
	compactConsecFails int
	compactFailures    uint64
	lastCompactErr     string
	compactBackoff     time.Duration

	// buildStats is the construction cost breakdown; set by Build,
	// nil on an Opened index.
	buildStats *BuildStats

	// tel collects operation latency histograms and per-phase query
	// spans; nil when Params.DisableTelemetry is set (every observation
	// site is nil-safe).
	tel *telemetry.Collector
}

// metaJSON is the serialised index descriptor. Count and Gen together
// are the ingest commit point: Count is the id watermark below which
// objects live in the vector store and the trees of generation Gen;
// WAL replay skips insert records under it. Both move only via the
// atomic meta.json replace in the compaction commit (or Flush), so a
// crash leaves a consistent (Gen, Count) pair. Gen is omitempty: a
// fresh build is generation 0 and its meta stays byte-identical to the
// pre-ingest layout. Clustered records the store layout: that many
// leading slots of vectors.pg are in tree-0 Hilbert-key order, translated
// by ids.pg; absent means none are — records in id order, no ids.pg, the
// layout every directory had before the slot space.
type metaJSON struct {
	Params    Params      `json:"params"`
	Nu        int         `json:"nu"`
	Count     uint64      `json:"count"`
	Gen       uint64      `json:"gen,omitempty"`
	Clustered uint64      `json:"clustered,omitempty"`
	Refs      [][]float32 `json:"refs"`
	Lo        []float32   `json:"lo"`
	Hi        []float32   `json:"hi"`
}

// treeGenPath names tree t's file in generation gen. A fresh build is
// generation 0 and keeps the pre-ingest name.
func (ix *Index) treeGenPath(t int, gen uint64) string {
	name := fmt.Sprintf("tree_%02d.pg", t)
	if gen > 0 {
		name = fmt.Sprintf("tree_%02d.g%d.pg", t, gen)
	}
	return filepath.Join(ix.dir, name)
}

// openPager is the one place an index file is opened or created, so
// every tree generation, the vector store and the slot map share one
// pool configuration. Reopening ignores PageSize: the file's own wins.
func (ix *Index) openPager(path string, create bool) (*pager.Pager, error) {
	p := ix.params
	return pager.Open(path, pager.Options{
		Create: create, PageSize: p.PageSize, PoolPages: p.PoolPages, DisableLRU: p.DisableCache,
	})
}

// eachPager visits every file the index holds open — the current tree
// generation, the vector store, the slot map — skipping what a failed
// Build or Open never got to and the slot map an unclustered index never
// had.
func (ix *Index) eachPager(fn func(*pager.Pager)) {
	for _, tr := range ix.trees {
		if tr != nil {
			fn(tr.Pager())
		}
	}
	if ix.vectors != nil {
		fn(ix.vectors.Pager())
	}
	if ix.slots.pgr != nil {
		fn(ix.slots.pgr)
	}
}

// RemoveIndexFiles deletes every file a previous Build may have left at
// dir's top level: meta.json first (the layout's commit point, so a
// crash mid-rebuild leaves a directory Open rejects rather than one
// silently serving the old dataset), then the deletion marks, the
// vector store, the slot map, and the tree files. Build calls it so
// rebuilding in place starts clean — stale deleted.bin marks would
// otherwise resurrect on the new index, and stale tree files would
// linger when tau shrinks. Missing files (or a missing directory) are
// fine.
func RemoveIndexFiles(dir string) error {
	trees, err := filepath.Glob(filepath.Join(dir, "tree_*.pg"))
	if err != nil {
		return err
	}
	// Crash leftovers of the WAL's atomic rewrite.
	walTmp, err := filepath.Glob(filepath.Join(dir, walFile+".tmp*"))
	if err != nil {
		return err
	}
	trees = append(trees, walTmp...)
	victims := []string{
		filepath.Join(dir, metaFile),
		filepath.Join(dir, deletedFile),
		filepath.Join(dir, "vectors.pg"),
		filepath.Join(dir, slotFile),
		filepath.Join(dir, walFile),
		// The sharded layout's per-shard identity stamp (internal/shard):
		// a directory rebuilt as a standalone index must stop claiming
		// membership in whatever cluster build it used to belong to.
		filepath.Join(dir, "identity.json"),
	}
	for _, p := range append(victims, trees...) {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// newIndex derives the in-memory state Build and Open share from what
// meta.json records: geometry, reference cross-distances, one curve and
// quantiser per partition. On error the index is still safe to Close.
func newIndex(dir string, m metaJSON) (*Index, error) {
	p := m.Params
	ix := &Index{
		dir:      dir,
		params:   p,
		nu:       m.Nu,
		eta:      m.Nu / p.Tau,
		refs:     m.Refs,
		refCross: crossDistances(m.Refs),
		lo:       m.Lo,
		hi:       m.Hi,
		gen:      m.Gen,
		deleted:  newDeleteSet(),
	}
	if !p.DisableTelemetry {
		ix.tel = telemetry.NewCollector()
	}
	ix.curves = make([]hilbert.Curve, p.Tau)
	ix.quants = make([]*hilbert.Quantizer, p.Tau)
	for t := 0; t < p.Tau; t++ {
		var c hilbert.Curve
		var err error
		switch p.Curve {
		case CurveZOrder:
			c, err = hilbert.NewZOrder(ix.eta, p.Omega)
		default:
			c, err = hilbert.New(ix.eta, p.Omega)
		}
		if err != nil {
			return ix, err
		}
		ix.curves[t] = c
		start := t * ix.eta
		ix.quants[t] = hilbert.NewQuantizer(ix.lo[start:start+ix.eta], ix.hi[start:start+ix.eta], p.Omega)
	}
	return ix, nil
}

func crossDistances(refs [][]float32) [][]float64 {
	m := len(refs)
	cross := make([][]float64, m)
	for i := range cross {
		cross[i] = make([]float64, m)
		for j := range cross[i] {
			if i != j {
				cross[i][j] = vecmath.Dist(refs[i], refs[j])
			}
		}
	}
	return cross
}

// writeMeta atomically replaces meta.json — it is the ingest commit
// point (Count + Gen), so a torn write must be impossible: the
// write-fsync-rename-dirsync discipline leaves either the old complete
// descriptor or the new one.
func (ix *Index) writeMeta() error {
	m := metaJSON{
		Params:    ix.params,
		Nu:        ix.nu,
		Count:     ix.vectors.Count(),
		Gen:       ix.gen,
		Clustered: ix.slots.base,
		Refs:      ix.refs,
		Lo:        ix.lo,
		Hi:        ix.hi,
	}
	buf, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(ix.dir, metaFile, buf)
}

// readMeta loads dir's committed descriptor.
func readMeta(dir string) (metaJSON, error) {
	buf, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return metaJSON{}, fmt.Errorf("core: read index meta: %w", err)
	}
	return decodeMeta(buf)
}

// decodeMeta parses a descriptor and rejects one newIndex could not
// derive an index from — a τ of 0, reference vectors or a quantiser
// domain of another dimensionality — so corrupt bytes are an error, not
// a panic on the first query.
func decodeMeta(buf []byte) (metaJSON, error) {
	var m metaJSON
	if err := json.Unmarshal(buf, &m); err != nil {
		return m, fmt.Errorf("core: parse index meta: %w", err)
	}
	if err := m.Params.Validate(m.Nu); err != nil {
		return m, fmt.Errorf("%w in %s", err, metaFile)
	}
	if len(m.Lo) != m.Nu || len(m.Hi) != m.Nu || len(m.Refs) != m.Params.M {
		return m, fmt.Errorf("core: %s holds %d/%d domain bounds and %d references, want %d/%d and %d",
			metaFile, len(m.Lo), len(m.Hi), len(m.Refs), m.Nu, m.Nu, m.Params.M)
	}
	for i, r := range m.Refs {
		if len(r) != m.Nu {
			return m, fmt.Errorf("core: %s holds a %d-d reference %d, nu = %d", metaFile, len(r), i, m.Nu)
		}
	}
	return m, nil
}

// OpenOptions tunes how an existing index is opened.
type OpenOptions struct {
	PoolPages    int  // buffer-pool pages per file; 0 keeps the build-time value
	DisableCache bool // paper's caching-off protocol
	BatchWorkers int  // QueryBatch fan-out bound; 0 = GOMAXPROCS

	// WALSyncInterval selects the ingest durability discipline: 0 group-
	// commits every insert/delete (acknowledged = fsynced); > 0
	// acknowledges after the page-cache write and fsyncs on this cadence
	// (safe against process crash, a bounded window against power loss).
	WALSyncInterval time.Duration
	// MemtableMaxVectors is the compaction threshold: once this many
	// acknowledged inserts sit in the memtable the background compactor
	// merges them into the trees. 0 means the default (4096).
	MemtableMaxVectors int

	// DisableTelemetry turns off latency histograms and per-phase query
	// spans; see Params.DisableTelemetry.
	DisableTelemetry bool
}

// Open loads an HD-Index previously written by Build, replaying any
// surviving WAL tail into the memtable so the index recovers to the
// last acknowledged write.
func Open(dir string, opts OpenOptions) (*Index, error) {
	m, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	p := &m.Params
	if opts.PoolPages > 0 {
		p.PoolPages = opts.PoolPages
	}
	p.DisableCache = opts.DisableCache
	p.BatchWorkers = opts.BatchWorkers
	p.WALSyncInterval = opts.WALSyncInterval
	p.MemtableMaxVectors = opts.MemtableMaxVectors
	p.DisableTelemetry = opts.DisableTelemetry

	ix, err := newIndex(dir, m)
	if err == nil {
		err = ix.load(m.Count, m.Clustered)
	}
	if err != nil {
		ix.Close()
		return nil, err
	}
	ix.startCompactor()
	return ix, nil
}

// load opens the committed generation's files and recovers the ingest
// state: Open's body, split out so every failure is released by the one
// Close in Open.
func (ix *Index) load(committed, clustered uint64) error {
	// A crash inside a compaction (before its meta commit) or right
	// after one (before old-generation cleanup) leaves tree files of
	// generations other than ix.gen — remove them so they cannot collide
	// with a future compaction reusing the generation number.
	if err := ix.removeStaleGenerations(); err != nil {
		return err
	}
	ix.trees = make([]*rdbtree.Tree, ix.params.Tau)
	for t := range ix.trees {
		pgr, err := ix.openPager(ix.treeGenPath(t, ix.gen), false)
		if err != nil {
			return err
		}
		if ix.trees[t], err = rdbtree.Open(pgr); err != nil {
			pgr.Close()
			return err
		}
	}
	vp, err := ix.openPager(filepath.Join(ix.dir, "vectors.pg"), false)
	if err != nil {
		return err
	}
	vs, err := vecstore.Open(vp)
	if err != nil {
		vp.Close()
		return err
	}
	ix.vectors = vs
	if vs.Dim() != ix.nu {
		return fmt.Errorf("core: vectors.pg holds %d-d vectors, meta.json says %d", vs.Dim(), ix.nu)
	}
	if b := vs.Base(); b != 0 && b != clustered {
		return fmt.Errorf("core: vectors.pg holds %d byte records, meta.json clusters %d", b, clustered)
	}
	if clustered > 0 {
		if clustered > committed {
			return fmt.Errorf("core: meta clusters %d vectors, commits %d", clustered, committed)
		}
		sp, err := ix.openPager(filepath.Join(ix.dir, slotFile), false)
		if err != nil {
			return err
		}
		if ix.slots, err = openSlotMap(sp, clustered); err != nil {
			sp.Close()
			return err
		}
	}

	// Reconcile the vector store against the meta commit point. With a
	// WAL present, meta.Count is authoritative: a count beyond it is a
	// compaction commit that crashed before meta.json landed — rewind
	// it; the WAL still holds those inserts and replays them below. A
	// pre-WAL directory has no such discipline: its vector-store header
	// is the historical truth, so adopt it (and persist the adoption
	// before the WAL file starts marking the new discipline).
	walPath := filepath.Join(ix.dir, walFile)
	if _, statErr := os.Stat(walPath); statErr == nil {
		switch {
		case vs.Count() > committed:
			if err := vs.ResetCount(committed); err != nil {
				return err
			}
		case vs.Count() < committed:
			return fmt.Errorf("core: vector store holds %d vectors, meta commits %d", vs.Count(), committed)
		}
	} else if vs.Count() != committed {
		if err := ix.writeMeta(); err != nil {
			return err
		}
	}

	if err := ix.loadDeleteSet(); err != nil {
		return err
	}
	ix.wal, err = wal.Open(walPath, ix.walOptions(), ix.replayRecord)
	if err != nil {
		return fmt.Errorf("core: wal recovery: %w", err)
	}
	return ix.pruneDeleteMarks()
}

// staleGenerations lists the tree files in the directory whose name does
// not belong to the committed generation.
func (ix *Index) staleGenerations() ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(ix.dir, "tree_*.pg"))
	if err != nil {
		return nil, err
	}
	keep := make(map[string]bool, ix.params.Tau)
	for t := 0; t < ix.params.Tau; t++ {
		keep[ix.treeGenPath(t, ix.gen)] = true
	}
	return slices.DeleteFunc(matches, func(path string) bool { return keep[path] }), nil
}

// removeStaleGenerations deletes them.
func (ix *Index) removeStaleGenerations() error {
	stale, err := ix.staleGenerations()
	for _, path := range stale {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return err
}

// Close stops the background compactor, syncs and closes the WAL, and
// releases all file handles. Safe to call more than once. Taking the
// write lock makes Close wait out in-flight searches instead of
// closing pagers under them (searches bound their own lifetime via
// context deadlines). The memtable is NOT force-compacted: its entries
// live in the WAL and replay on the next Open.
func (ix *Index) Close() error {
	// Outside the index lock: an in-flight compaction takes ix.mu for
	// its commit section.
	ix.stopCompactor()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var first error
	if ix.wal != nil {
		if err := ix.wal.Close(); err != nil && first == nil {
			first = err
		}
		ix.wal = nil
	}
	ix.eachPager(func(pgr *pager.Pager) {
		if err := pgr.Close(); err != nil && first == nil {
			first = err
		}
	})
	return first
}

// walOptions builds the WAL configuration, wiring fsync durations into
// the telemetry collector when one is attached.
func (ix *Index) walOptions() wal.Options {
	o := wal.Options{SyncInterval: ix.params.WALSyncInterval}
	if ix.tel != nil {
		o.OnSync = ix.tel.ObserveWALSync
	}
	return o
}

// Telemetry returns a point-in-time copy of the index's latency
// histograms (whole queries, per-phase breakdowns, inserts, compactions,
// WAL fsyncs). Empty when telemetry is disabled.
func (ix *Index) Telemetry() telemetry.CollectorSnapshot { return ix.tel.Snapshot() }

// Params returns the effective parameters.
func (ix *Index) Params() Params { return ix.params }

// Dim returns the indexed dimensionality ν.
func (ix *Index) Dim() int { return ix.nu }

// Count returns the number of indexed objects: the committed vector
// store plus the memtable's acknowledged-but-uncompacted inserts.
func (ix *Index) Count() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.vectors.Count() + uint64(len(ix.mem))
}

// Clustered returns how many of the index's vectors — the ones Build was
// given — are stored in tree-0 Hilbert-key order behind ids.pg; the rest
// arrived later and sit behind them in id order. 0 for a directory
// written before the slot space.
func (ix *Index) Clustered() uint64 { return ix.slots.base }

// StoreFormat describes vectors.pg's records (vecstore.Store.Format).
func (ix *Index) StoreFormat() string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.vectors.Format()
}

// References returns the reference vectors (not copies).
func (ix *Index) References() [][]float32 { return ix.refs }

// SizeOnDisk returns the total bytes of all index files, including the
// write-ahead log.
func (ix *Index) SizeOnDisk() int64 {
	var total int64
	ix.eachPager(func(pgr *pager.Pager) { total += pgr.FileSize() })
	if ix.wal != nil {
		total += ix.wal.Size()
	}
	return total
}

// IOStats sums the pager counters of all files.
func (ix *Index) IOStats() pager.Stats {
	var s pager.Stats
	ix.eachPager(func(pgr *pager.Pager) { s.Add(pgr.Stats()) })
	return s
}

// ResetIOStats zeroes all pager counters.
func (ix *Index) ResetIOStats() {
	ix.eachPager((*pager.Pager).ResetStats)
}

// Flush persists all dirty state to disk: tree and vector-store pages,
// the meta descriptor, the deletion marks, and an fsync of the WAL.
// The ingest path does not need it for durability (acknowledged writes
// are WAL-durable already, and tree files are written once, by the
// build or a compaction); it remains a convenient full-sync barrier.
func (ix *Index) Flush() error {
	ix.mu.Lock()
	var err error
	for _, tr := range ix.trees {
		if err == nil {
			err = tr.Flush()
		}
	}
	if err == nil {
		err = ix.vectors.Flush()
	}
	if err == nil {
		err = ix.writeMeta()
	}
	w := ix.wal
	ix.mu.Unlock()
	if err == nil {
		err = ix.saveDeleteSet()
	}
	if err == nil && w != nil {
		err = w.Sync()
	}
	return err
}
