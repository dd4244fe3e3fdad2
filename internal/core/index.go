package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"github.com/hd-index/hdindex/internal/atomicfile"
	"github.com/hd-index/hdindex/internal/bptree"
	"github.com/hd-index/hdindex/internal/fanout"
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
	slots   slotMap      // id ↔ slot; the identity for an index without ids.pg
	cache   *pager.Cache // the one buffer pool of every file opened, PoolPages frames each

	refs     [][]float32 // the m reference vectors
	refCross [][]float64 // d(R_i, R_j), for the Ptolemaic bound
	lo, hi   []float32   // per-dimension quantiser domain

	curve   *hilbert.Curve       // every partition's: keys treeConfig().StoredKeyLen() wide
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

	// Background compactor plumbing; compactMu serialises Compact.
	// compactConsecFails/compactFailures/lastCompactErr are the
	// compaction circuit breaker (failsafe.go), open while
	// compactConsecFails > 0, guarded by mu. The WAL's read-only state
	// is the log's own (ix.wal.Err).
	compactMu          sync.Mutex
	compactCancel      context.CancelFunc
	compactDone        chan struct{}
	compactWake        chan struct{}
	compactions        uint64
	lastCompactMS      float64
	lastCompactN       int
	compactConsecFails int
	compactFailures    uint64
	lastCompactErr     string

	// buildStats is the construction cost breakdown; set by Build,
	// nil on an Opened index.
	buildStats *BuildStats

	// tel collects operation latency histograms and per-phase query
	// spans.
	tel *telemetry.Collector
}

// metaJSON is the serialised index descriptor and the index's one commit
// point. Count is the id watermark below which objects live in the
// vector store (whatever its header says) and the trees of generation
// Gen; WAL replay skips insert records under it. Deleted and Purged are
// the deletion marks and the ids a compaction dropped from the trees,
// ascending ids, not slots; the WAL's delete records replay on top of
// them. All of it moves only by the atomic meta.json replace of a
// compaction commit, Open or Flush, so a crash leaves one consistent
// state. Gen, Deleted and Purged are omitempty: a fresh build is
// generation 0 with nothing deleted, and its meta stays byte-identical
// to the pre-ingest layout. Clustered records the store layout: that
// many leading slots of vectors.pg are in tree-0 Hilbert-key order,
// translated by ids.pg; absent means none are — records in id order, no
// ids.pg, the layout every directory had before the slot space.
type metaJSON struct {
	Params    Params      `json:"params"`
	Nu        int         `json:"nu"`
	Count     uint64      `json:"count"`
	Gen       uint64      `json:"gen,omitempty"`
	Clustered uint64      `json:"clustered,omitempty"`
	Deleted   []uint64    `json:"deleted,omitempty"`
	Purged    []uint64    `json:"purged,omitempty"`
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

// openPager is the one place an index file is opened to serve, on
// ix.cache, the pool all its files share: the trees and ids.pg with
// o.ReadOnly, vectors.pg writable (Build creates it here, and
// compactions append to it). Reopening ignores PageSize: the file's own
// wins.
func (ix *Index) openPager(path string, o pager.Options) (*pager.Pager, error) {
	p := ix.params
	o.PageSize, o.PoolPages, o.DisableLRU = p.PageSize, p.PoolPages, p.DisableCache
	return ix.cache.Open(path, o)
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
// silently serving the old dataset), then an older layout's deletion
// marks, the vector store, the slot map, and the tree files. Build calls
// it so rebuilding in place starts clean — stale deleted.bin marks would
// otherwise merge into the new index, and stale tree files would linger
// when tau shrinks. Missing files (or a missing directory) are
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
// meta.json records: geometry, reference cross-distances, the curve and
// one quantiser per partition. On error the index is still safe to Close.
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
		cache:    pager.NewCache(),
		tel:      telemetry.NewCollector(),
	}
	kind := hilbert.HilbertCurve
	if p.Curve == CurveZOrder {
		kind = hilbert.ZOrderCurve
	}
	var err error
	if ix.curve, err = hilbert.NewPrefix(kind, ix.eta, p.Omega, ix.treeConfig().StoredKeyLen()); err != nil {
		return ix, err
	}
	ix.quants = make([]*hilbert.Quantizer, p.Tau)
	for t := range ix.quants {
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

// writeMeta atomically replaces meta.json, the commit point, with the
// index at count and gen and with drop's marks moved to the purged set:
// the state a compaction commit or a rebuild is about to apply;
// everyone else passes the index's own count, generation and nil. The
// write-fsync-rename-dirsync discipline leaves either the old complete
// descriptor or the new one.
func (ix *Index) writeMeta(count, gen uint64, drop map[uint64]uint64) error {
	m := metaJSON{
		Params:    ix.params,
		Nu:        ix.nu,
		Count:     count,
		Gen:       gen,
		Clustered: ix.slots.base,
		Refs:      ix.refs,
		Lo:        ix.lo,
		Hi:        ix.hi,
	}
	m.Deleted, m.Purged = ix.deleted.lists(drop)
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
	// Build used to record any PoolPages; one it now rejects opens as 256.
	if m.Params.PoolPages <= 0 {
		m.Params.PoolPages = 256
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
	PoolPages    int  // buffer-pool pages per file, pooled across the index's files; 0 keeps the build-time value
	DisableCache bool // paper's caching-off protocol
	// MemtableMaxVectors is the compaction threshold: once this many
	// acknowledged inserts sit in the memtable the background compactor
	// merges them into the trees. 0 means the default (4096).
	MemtableMaxVectors int
}

// Open loads an HD-Index previously written by Build, replaying any
// surviving WAL tail into the memtable so the index recovers to the
// last acknowledged write.
func Open(dir string, opts OpenOptions) (*Index, error) {
	if opts.PoolPages < 0 {
		return nil, fmt.Errorf("core: pool pages must be >= 0, got %d", opts.PoolPages)
	}
	m, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	p := &m.Params
	if opts.PoolPages > 0 {
		p.PoolPages = opts.PoolPages
	}
	p.DisableCache = opts.DisableCache
	p.MemtableMaxVectors = opts.MemtableMaxVectors

	ix, err := newIndex(dir, m)
	if err == nil {
		err = ix.load(m)
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
func (ix *Index) load(m metaJSON) error {
	// A crash inside a compaction (before its meta commit) or right
	// after one (before old-generation cleanup) leaves tree files of
	// generations other than ix.gen — remove them so they cannot collide
	// with a future compaction reusing the generation number.
	if err := ix.removeStaleGenerations(); err != nil {
		return err
	}
	ix.trees = make([]*rdbtree.Tree, ix.params.Tau)
	old := false // trees of an older layout, to rebuild
	for t := range ix.trees {
		pgr, err := ix.openPager(ix.treeGenPath(t, ix.gen), pager.Options{ReadOnly: true})
		if err != nil {
			return err
		}
		if ix.trees[t], err = rdbtree.Open(pgr); err != nil {
			pgr.Close()
			if !errors.Is(err, bptree.ErrOldLayout) {
				return err
			}
			old = true
		}
	}
	vp, err := ix.openPager(filepath.Join(ix.dir, "vectors.pg"), pager.Options{})
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
	if b := vs.Base(); b != 0 && b != m.Clustered {
		return fmt.Errorf("core: vectors.pg holds %d byte records, meta.json clusters %d", b, m.Clustered)
	}
	// meta.json's count is the store's, whatever its header says: records
	// past it are a batch whose commit never landed, which the WAL still
	// holds and the next compaction writes over.
	vs.SetCount(m.Count)
	if err := vs.Validate(); err != nil {
		return fmt.Errorf("core: meta.json commits %d vectors: %w", m.Count, err)
	}
	if m.Clustered > 0 {
		if m.Clustered > m.Count {
			return fmt.Errorf("core: meta clusters %d vectors, commits %d", m.Clustered, m.Count)
		}
		sp, err := ix.openPager(filepath.Join(ix.dir, slotFile), pager.Options{ReadOnly: true})
		if err != nil {
			return err
		}
		if ix.slots, err = openSlotMap(sp, m.Clustered); err != nil {
			sp.Close()
			return err
		}
	}

	// The marks meta.json commits, and those of an older directory's
	// deleted.bin, before anything writes meta.json again.
	if err := ix.addMarks(m.Deleted, m.Purged); err != nil {
		return err
	}
	legacyMarks, err := ix.loadDeleteSet()
	if err != nil {
		return err
	}
	if old {
		if err := ix.rebuildTrees(); err != nil {
			return err
		}
	}
	ix.wal, err = wal.Open(filepath.Join(ix.dir, walFile), ix.walOptions(), ix.replayRecord)
	if err != nil {
		return fmt.Errorf("core: wal recovery: %w", err)
	}
	if !ix.pruneDeleteMarks() && !legacyMarks {
		return nil
	}
	// Commit the pruned or merged marks, then drop deleted.bin: a crash
	// in between merges the same file into the same marks again, and
	// the next meta.json write syncs the directory past its removal.
	if err := ix.writeMeta(ix.vectors.Count(), ix.gen, nil); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(ix.dir, deletedFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// rebuildTrees writes all τ trees anew into generation gen+1 from what
// they are a function of (Algorithm 1): the committed vectors — every id
// below the count but the purged, in id order, each read from its slot —
// the references and the quantisers, through Build's tree writer, and
// commits them through meta.json as a compaction does. A crash leaves
// the old generation to rebuild again or the new one's stale files.
func (ix *Index) rebuildTrees() error {
	count, gen := ix.vectors.Count(), ix.gen+1
	var vectors [][]float32
	var slotOf []uint64
	for id := range count {
		slot, err := ix.slots.slot(id)
		if err != nil {
			return err
		}
		if m, _ := ix.deleted.get(slot); m.purged {
			continue
		}
		v, err := ix.vectors.Get(slot, nil)
		if err != nil {
			return err
		}
		vectors, slotOf = append(vectors, v), append(slotOf, slot)
	}
	ctx, leave := fanout.Enter(context.Background())
	defer leave()
	rdist, err := computeRefDists(ctx, vectors, ix.refs)
	if err != nil {
		return err
	}
	trees, err := ix.writeTrees(ctx, gen, vectors, slotOf, rdist, nil, nil, new(phaseAccum))
	if err == nil {
		err = ix.writeMeta(count, gen, nil)
	}
	if err != nil {
		ix.dropTrees(trees, gen)
		return err
	}
	ix.dropTrees(ix.trees, ix.gen)
	ix.trees, ix.gen = trees, gen
	return nil
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
// the telemetry collector.
func (ix *Index) walOptions() wal.Options {
	return wal.Options{OnSync: ix.tel.ObserveWALSync}
}

// Telemetry returns a point-in-time copy of the index's latency
// histograms (whole queries, per-phase breakdowns, inserts, compactions,
// WAL fsyncs).
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

// Info is an index's report of itself, every field read under one hold
// of the index lock: a compaction lands wholly before or wholly after
// it. The JSON keys are /stats' per-shard row; the pool counters and
// the ingest stats are summed into the layout's own blocks instead.
type Info struct {
	Count uint64 `json:"count"`
	// Clustered is how many of the vectors — the ones Build was given —
	// are stored in tree-0 Hilbert-key order behind ids.pg; the rest
	// arrived later and sit behind them in id order. 0 for a directory
	// written before the slot space.
	Clustered  uint64      `json:"clustered"`
	Records    string      `json:"records"` // vectors.pg's records (vecstore.Store.Format)
	Deleted    int         `json:"deleted"`
	SizeOnDisk int64       `json:"size_on_disk"`
	IO         pager.Stats `json:"-"`
	WAL        IngestStats `json:"-"`
}

// Info returns the index's snapshot of itself.
func (ix *Index) Info() Info {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Info{
		Count:      ix.vectors.Count() + uint64(len(ix.mem)),
		Clustered:  ix.slots.base,
		Records:    ix.vectors.Format(),
		Deleted:    ix.deleted.len(),
		SizeOnDisk: ix.SizeOnDisk(),
		IO:         ix.IOStats(),
		WAL:        ix.ingestStatsLocked(),
	}
}

// SizeOnDisk returns the total bytes of all index files, including the
// write-ahead log.
func (ix *Index) SizeOnDisk() int64 {
	var total int64
	ix.eachPager(func(pgr *pager.Pager) { total += pgr.FileSize() })
	if ix.wal != nil {
		total += ix.wal.Stats().Bytes
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

// Flush commits the state that lives in memory — the deletion marks —
// through meta.json and fsyncs the WAL. Pages need no flush: every one
// reached its file when it was written, and tree files and ids.pg are
// written once, by the build or a compaction, and served read-only. The
// ingest path does not need it for durability (acknowledged writes are
// WAL-durable already); it remains a convenient full-sync barrier.
func (ix *Index) Flush() error {
	ix.mu.Lock()
	err := ix.writeMeta(ix.vectors.Count(), ix.gen, nil)
	w := ix.wal
	ix.mu.Unlock()
	if err == nil && w != nil {
		err = w.Sync()
	}
	return err
}
