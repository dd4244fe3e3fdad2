package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"github.com/hd-index/hdindex/internal/bptree"
	"github.com/hd-index/hdindex/internal/hilbert"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/radix"
	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/topk"
	"github.com/hd-index/hdindex/internal/vecmath"
	"github.com/hd-index/hdindex/internal/vecstore"
	"github.com/hd-index/hdindex/internal/wal"
)

// sink keeps the compiler from discarding a measured call's result.
var sink float64

// perOp times iters calls of fn and returns nanoseconds per call.
func perOp(iters int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// runMicro is the layer micro-suite: each layer driven alone, on
// fixtures built from the same dataset with the layer's own
// constructors (so nothing here depends on core's file naming), for a
// fixed number of iterations.
func (b *bench) runMicro(base, queries [][]float32) error {
	suite := b.tr.open("micro-suite", -1)
	defer b.tr.finish(suite)
	// failed keeps the first error of a timed loop, reported after it.
	var failed error
	check := func(what string, err error) {
		if err != nil && failed == nil {
			failed = fmt.Errorf("micro-suite: %s: %w", what, err)
		}
	}
	iters := func(n int) int { return max(n/b.sc.microDiv, 10) }
	rng := b.rng(rngMicro)
	n := len(base)
	eta := dim / tau
	cfg := rdbtree.Config{Eta: eta, Omega: omega, M: refs}
	kl := cfg.KeyLen()

	// hilbert + radix: encode the first partition of every vector the
	// way a tree build does, then sort the keys.
	curve, err := hilbert.New(eta, omega)
	if err != nil {
		return err
	}
	coords := make([]uint32, n*eta)
	for i, v := range base {
		for d := 0; d < eta; d++ {
			coords[i*eta+d] = uint32(v[d]) // values are integers in [0,255] = 8 bits
		}
	}
	keys := make([]byte, 0, n*kl)
	b.set("hilbert.encode_ns", perOp(n, func(i int) {
		keys = curve.Encode(keys, coords[i*eta:(i+1)*eta])
	}))
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	t0 := time.Now()
	radix.Sort(keys, kl, perm)
	b.set("radix.sort_ns_per_key", float64(time.Since(t0).Nanoseconds())/float64(n))
	key := func(row int) []byte { return keys[row*kl : (row+1)*kl] }

	delta := make([]byte, kl)
	b.set("hilbert.keydelta_ns", perOp(iters(1_000_000), func(i int) {
		hilbert.KeyDelta(delta, key(i%n), key((i*7+1)%n))
	}))

	// vecmath: full distances, and bounded ones against the bound a
	// refinement holds once its top-k is full (the 10th-nearest of a
	// query), so most evaluations abandon early as they do in a query.
	q0 := queries[0]
	b.set("vecmath.dist_ns", perOp(iters(1_000_000), func(i int) {
		sink += vecmath.Dist(q0, base[i%n])
	}))
	kth := exactKNN(base, seqIDs(n), q0, k)[k-1].dist
	b.set("vecmath.distsqbound_ns", perOp(iters(1_000_000), func(i int) {
		d, _ := vecmath.DistSqBound(q0, base[i%n], kth*kth)
		sink += d
	}))

	// topk: the filter's 4096 -> 1024 selection, and streaming pushes.
	items := make([]topk.Item, builtA)
	scratch := make([]topk.Item, builtA)
	for i := range items {
		items[i] = topk.Item{ID: uint64(i), Dist: rng.Float64()}
	}
	var selectNS float64
	selects := iters(200)
	for i := 0; i < selects; i++ {
		copy(scratch, items)
		t0 := time.Now()
		sink += topk.SelectK(scratch, builtG)[0].Dist
		selectNS += float64(time.Since(t0).Nanoseconds())
	}
	b.set("topk.selectk_ns", selectNS/float64(selects))
	list := topk.New(k)
	b.set("topk.push_ns", perOp(iters(1_000_000), func(i int) {
		list.Push(uint64(i), items[i%builtA].Dist)
	}))

	// rdbtree + bptree + pager: one tree over the sorted keys with m
	// reference distances per entry, its pool large enough to hold it.
	refDists := make([]float32, n*refs)
	for i, v := range base {
		for r := 0; r < refs; r++ {
			refDists[i*refs+r] = float32(vecmath.Dist(v, base[r]))
		}
	}
	treePath := filepath.Join(b.dir, "micro-tree.db")
	pgr, err := pager.Open(treePath, pager.Options{PageSize: pageSize, PoolPages: b.sc.warmPool, Create: true})
	if err != nil {
		return err
	}
	defer pgr.Close()
	tree, err := rdbtree.Create(pgr, cfg)
	if err != nil {
		return err
	}
	records := make([]rdbtree.Record, n)
	for i, row := range perm {
		records[i] = rdbtree.Record{Key: key(int(row)), ID: uint64(row), RefDists: refDists[int(row)*refs : (int(row)+1)*refs]}
	}
	if err := tree.BulkLoad(records); err != nil {
		return err
	}
	if err := tree.Flush(); err != nil {
		return err
	}

	qkeys := make([][]byte, len(queries))
	qc := make([]uint32, eta)
	for i, q := range queries {
		for d := range qc {
			qc[d] = uint32(q[d])
		}
		qkeys[i] = curve.Encode(nil, qc)
	}
	ctx := context.Background()
	var entries []rdbtree.Entry
	var arena []float32
	walk := func(qk []byte) error {
		entries, arena, err = tree.SearchNearestInto(ctx, qk, builtA, entries, arena)
		return err
	}
	for _, qk := range qkeys { // bring every page a walk touches into the pool
		if err := walk(qk); err != nil {
			return err
		}
	}
	before := pgr.Stats()
	var fetched int
	t0 = time.Now()
	for _, qk := range qkeys {
		if err := walk(qk); err != nil {
			return err
		}
		fetched += len(entries)
	}
	walkNS := float64(time.Since(t0).Nanoseconds())
	after := pgr.Stats()
	b.set("rdbtree.search_ns_per_entry", ratio(walkNS, float64(fetched)))
	b.set("rdbtree.pages_per_search", float64(after.Hits+after.Misses-before.Hits-before.Misses)/float64(len(qkeys)))

	bt, err := bptree.Open(pgr)
	if err != nil {
		return err
	}
	cur := bt.NewCursor()
	defer cur.Close()
	b.set("bptree.seek_ns", perOp(iters(100_000), func(i int) {
		check("bptree seek", cur.Seek(qkeys[i%len(qkeys)]))
	}))
	if err := cur.First(); err != nil {
		return err
	}
	b.set("bptree.next_ns", perOp(iters(2_000_000), func(int) {
		if !cur.Valid() {
			check("bptree first", cur.First())
		}
		check("bptree next", cur.Next())
	}))

	pages := int(pgr.PageCount())
	pageAt := func(i int) pager.PageID { return pager.PageID(1 + (i*7919)%(pages-1)) }
	for i := 1; i < pages; i++ { // every page resident
		v, err := pgr.View(pager.PageID(i))
		if err != nil {
			return err
		}
		v.Release()
	}
	b.set("pager.view_hit_ns", perOp(iters(2_000_000), func(i int) {
		v, err := pgr.View(pageAt(i))
		if check("pager view", err); err == nil {
			v.Release()
		}
	}))
	b.set("pager.get_hit_ns", perOp(iters(2_000_000), func(i int) {
		p, err := pgr.Get(pageAt(i))
		if check("pager get", err); err == nil {
			p.Release()
		}
	}))
	cold, err := pager.Open(treePath, pager.Options{PageSize: pageSize, ReadOnly: true, DisableLRU: true})
	if err != nil {
		return err
	}
	defer cold.Close()
	b.set("pager.get_miss_ns", perOp(iters(100_000), func(i int) {
		p, err := cold.Get(pageAt(i))
		if check("pager get, pool off", err); err == nil {
			p.Release()
		}
	}))

	// vecstore: the vector file, resident for the view path and with the
	// pool off for the miss path.
	vecPath := filepath.Join(b.dir, "micro-vectors.db")
	vpgr, err := pager.Open(vecPath, pager.Options{PageSize: pageSize, PoolPages: b.sc.warmPool, Create: true})
	if err != nil {
		return err
	}
	defer vpgr.Close()
	store, err := vecstore.Create(vpgr, dim)
	if err != nil {
		return err
	}
	if err := store.BuildFrom(base); err != nil {
		return err
	}
	if err := store.Flush(); err != nil {
		return err
	}
	idAt := func(i int) uint64 { return uint64((i * 7919) % n) }
	viewAll := func(count int) float64 {
		return perOp(count, func(i int) {
			if v, ok := store.GetView(idAt(i)); ok {
				sink += float64(v.Vec[0])
				v.Release()
			}
		})
	}
	viewAll(n) // resident
	b.set("vecstore.getview_hit_ns", viewAll(iters(1_000_000)))
	vcold, err := pager.Open(vecPath, pager.Options{PageSize: pageSize, ReadOnly: true, DisableLRU: true})
	if err != nil {
		return err
	}
	defer vcold.Close()
	coldStore, err := vecstore.Open(vcold)
	if err != nil {
		return err
	}
	dst := make([]float32, dim)
	b.set("vecstore.get_miss_ns", perOp(iters(100_000), func(i int) {
		v, err := coldStore.Get(idAt(i), dst)
		if check("vecstore get, pool off", err); err == nil {
			sink += float64(v[0])
		}
	}))

	// wal: appends acknowledged after an fsync (the default group
	// commit) and appends left in the page cache.
	log, err := wal.Open(filepath.Join(b.dir, "micro-wal.log"), wal.Options{}, nil)
	if err != nil {
		return err
	}
	defer log.Close()
	rec := func(i int) wal.Record { return wal.Record{Op: wal.OpInsert, ID: uint64(i), Vec: base[i%n]} }
	syncNS := perOp(iters(500), func(i int) {
		off, err := log.AppendNoSync(rec(i))
		if err == nil {
			err = log.WaitDurable(off)
		}
		check("wal synced append", err)
	})
	b.set("wal.append_sync_us", syncNS/1e3)
	b.set("wal.append_nosync_ns", perOp(iters(50_000), func(i int) {
		_, err := log.AppendNoSync(rec(i))
		check("wal append", err)
	}))
	return failed
}
