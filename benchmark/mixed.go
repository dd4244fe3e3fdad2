package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	hdindex "github.com/hd-index/hdindex"
)

const shards = 2

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

// mixedOp is one step of the seeded sequence: arg is a query index, a
// held-out vector index or a base id to delete.
type mixedOp struct {
	kind opKind
	arg  int
}

// mixedOps draws the sequence: 70 % queries, 28 % inserts, 2 % deletes
// of distinct random base ids.
func (b *bench) mixedOps(count int) (ops []mixedOp, inserts int) {
	rng := b.rng(rngOps)
	deleted := map[int]bool{}
	for len(ops) < count {
		switch r := rng.Float64(); {
		case r < 0.70:
			ops = append(ops, mixedOp{opQuery, rng.Intn(b.sc.queries)})
		case r < 0.98:
			ops = append(ops, mixedOp{opInsert, inserts})
			inserts++
		default:
			id := rng.Intn(b.sc.n)
			for deleted[id] {
				id = rng.Intn(b.sc.n)
			}
			deleted[id] = true
			ops = append(ops, mixedOp{opDelete, id})
		}
	}
	return ops, inserts
}

func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%02d", i))
}

// interval is a stretch of wall time: a search, or a compaction.
type interval struct{ start, end time.Time }

func (a interval) overlaps(b interval) bool { return a.start.Before(b.end) && b.start.Before(a.end) }

func (b *bench) runMixed() error {
	ctx := context.Background()
	t0 := time.Now()
	mix := newMixture(b.sc.n, b.rng(rngData).Int63())
	base := mix.draw(b.sc.n)
	queries := makeQueries(base, b.sc.queries, b.rng(rngQueries))
	ops, inserts := b.mixedOps(b.scaled(float64(b.sc.mixedOps)))
	heldOut := mix.draw(inserts)
	b.prep = time.Since(t0)

	opts := buildOptions(shards, b.sc.memtable)
	dir, buildD, err := b.buildIndex(base, opts)
	if err != nil {
		return err
	}
	t0 = time.Now()
	idx, err := hdindex.Open(dir, opts)
	openD := time.Since(t0)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	// idx is closed and reopened below; if an error ends the run early,
	// close whichever handle is live.
	defer func() {
		if idx != nil {
			idx.Close()
		}
	}()
	b.tr.add("Open", -1, 0, t0, openD, nil)

	plainOpts := []hdindex.QueryOption{hdindex.WithAlpha(512), hdindex.WithGamma(128)}
	tracedOpts := append(append([]hdindex.QueryOption(nil), plainOpts...), hdindex.WithStats())
	traced := b.tr != nil
	limit := uint64(len(base))
	deleted := map[uint64]bool{}
	var sums layerSums

	// search runs one query as the caller sees it and checks the answer,
	// with check as an extra condition when given.
	search := func(parent int, op int64, q []float32, traced bool, lat *timings, check func([]neighbour) string) []neighbour {
		qo := plainOpts
		if traced {
			qo = tracedOpts
		}
		t0 := time.Now()
		resp, err := idx.Query(ctx, q, k, qo...)
		d := time.Since(t0)
		if err != nil {
			b.op("query: " + err.Error())
			return nil
		}
		if lat != nil {
			lat.add(t0, d)
		}
		if traced {
			b.tr.add("Query", parent, op, t0, d, sums.add(resp.Stats, d))
		}
		nb := toNeighbours(resp.Results)
		reason := badResult(nb, limit, deleted)
		if reason == "" && check != nil {
			reason = check(nb)
		}
		b.op(reason)
		return nb
	}

	t0 = time.Now()
	for _, q := range queries {
		search(-1, -1, q, false, nil, nil)
	}
	warmD := time.Since(t0)
	b.set("setup_s", (buildD + openD + warmD).Seconds())
	b.note("set-up: build %.3f s (median of %d) + open %.4f s + warm-up pass %.3f s", buildD.Seconds(), numBuilds, openD.Seconds(), warmD.Seconds())

	// The op sequence: one client, every call waits for its reply.
	type insertion struct {
		id  uint64
		vec []float32
	}
	var (
		lat, insertLat timings
		all            timings // every operation of the sequence, searches included
		inserted       []insertion
		compactions    []interval // traced: compactions seen to finish
		compactMS      float64
		walBytes       float64
		walAppends     int
	)
	start := idx.IngestStats()
	lastCompactions := start.Compactions
	seq := b.tr.open("op-sequence", -1)
	timed := func(op int, q []float32, check func([]neighbour) string) {
		t0 := time.Now()
		search(seq, int64(op), q, traced, &lat, check)
		all.add(t0, time.Since(t0))
	}
	seqStart := time.Now()
	for i, o := range ops {
		switch o.kind {
		case opQuery:
			timed(i, queries[o.arg], nil)
		case opInsert:
			vec := heldOut[o.arg]
			var before hdindex.IngestStats
			if traced {
				before = idx.IngestStats()
			}
			t0 := time.Now()
			id, err := idx.Insert(vec)
			d := time.Since(t0)
			if err != nil {
				b.op("insert: " + err.Error())
				continue
			}
			insertLat.add(t0, d)
			all.add(t0, d)
			b.tr.add("Insert", seq, int64(i), t0, d, nil)
			reason := ""
			if id != limit {
				reason = fmt.Sprintf("insert returned id %d, want the next id %d", id, limit)
			}
			b.op(reason)
			limit = max(limit, id+1)
			inserted = append(inserted, insertion{id, vec})
			if traced {
				if after := idx.IngestStats(); after.WALBytes > before.WALBytes {
					walBytes += float64(after.WALBytes - before.WALBytes)
					walAppends++
				}
			}
			if len(inserted)%10 == 0 {
				timed(i, vec, func(nb []neighbour) string {
					for _, r := range nb {
						if r.id == id && r.dist == 0 {
							return ""
						}
					}
					return fmt.Sprintf("inserted id %d not returned at distance 0", id)
				})
			}
		case opDelete:
			id := uint64(o.arg)
			t0 := time.Now()
			err := idx.Delete(id)
			d := time.Since(t0)
			all.add(t0, d)
			b.tr.add("Delete", seq, int64(i), t0, d, nil)
			if err != nil {
				b.op("delete: " + err.Error())
				continue
			}
			b.op("")
			deleted[id] = true
			timed(i, base[id], nil) // badResult rejects any deleted id, this one included
		}
		if traced {
			// A compaction is seen when the counter moves; the program
			// reports how long the last one took, which dates its start.
			if st := idx.IngestStats(); st.Compactions > lastCompactions {
				now := time.Now()
				d := time.Duration(st.LastCompactionMS * float64(time.Millisecond))
				compactions = append(compactions, interval{now.Add(-d), now})
				compactMS += st.LastCompactionMS * float64(st.Compactions-lastCompactions)
				lastCompactions = st.Compactions
			}
		}
	}
	seqD := time.Since(seqStart)
	b.tr.finish(seq)
	end := idx.IngestStats()
	b.set("ops_per_s", all.rate(seqStart))
	b.note("op sequence: %d ops (%d inserts, %d deletes, %d check searches after writes) in %.2f s, %d background compactions",
		len(all.us), len(inserted), len(deleted), len(all.us)-len(ops), seqD.Seconds(), end.Compactions-start.Compactions)
	lat.emit(b)
	if traced {
		sums.emit(b, 512, shards)
		s := sortedCopy(insertLat.us)
		b.set("core.insert_p50_us", percentile(s, 0.50))
		b.set("core.insert_p99_us", percentile(s, 0.99))
		b.note("insert latency: %d samples", len(s))
		b.set("core.compactions", float64(end.Compactions-start.Compactions))
		b.set("core.compaction_ms_total", compactMS)
		b.set("wal.syncs_per_insert", ratio(float64(end.WALSyncs-start.WALSyncs), float64(len(inserted)+len(deleted))))
		b.set("wal.bytes_per_insert", ratio(walBytes, float64(walAppends)))
		var during, quiet []float64
		for i, end := range lat.ends {
			ran := interval{end.Add(-time.Duration(lat.us[i] * 1e3)), end}
			busy := false
			for _, c := range compactions {
				busy = busy || ran.overlaps(c)
			}
			if busy {
				during = append(during, lat.us[i])
			} else {
				quiet = append(quiet, lat.us[i])
			}
		}
		b.set("core.query_p99_in_compaction_us", percentile(sortedCopy(during), 0.99))
		b.set("core.query_p99_quiet_us", percentile(sortedCopy(quiet), 0.99))
		b.note("searches overlapping a compaction: %d of %d", len(during), len(lat.us))
		b.set("core.open_ms", float64(openD.Nanoseconds())/1e6)
	}

	// Settle, measure space, and reopen.
	t0 = time.Now()
	err = idx.Compact(ctx)
	b.tr.add("Compact", -1, 0, t0, time.Since(t0), nil)
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	if err := idx.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	b.set("index_bytes_per_vector", float64(idx.SizeOnDisk())/float64(idx.Count()))
	err = idx.Close()
	idx = nil
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	t0 = time.Now()
	idx, err = hdindex.Open(dir, opts)
	reopenD := time.Since(t0)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	b.tr.add("Open", -1, 1, t0, reopenD, nil)
	b.set("core.reopen_ms", float64(reopenD.Nanoseconds())/1e6)
	reason := ""
	if got, want := idx.Count(), uint64(len(base)+len(inserted)); got != want {
		reason = fmt.Sprintf("Count() after reopen is %d, want base + inserts = %d", got, want)
	}
	b.op(reason)

	// Verification pass on the reopened index, scored against brute
	// force over the final live set.
	var liveVecs [][]float32
	var liveIDs []uint64
	for id, v := range base {
		if !deleted[uint64(id)] {
			liveVecs = append(liveVecs, v)
			liveIDs = append(liveIDs, uint64(id))
		}
	}
	for _, in := range inserted {
		liveVecs = append(liveVecs, in.vec)
		liveIDs = append(liveIDs, in.id)
	}
	truth := bruteForce(liveVecs, liveIDs, queries, k)
	var score scorer
	var verifyLat timings
	pass := b.tr.open("verification-pass", -1)
	allocs, bytes := memDelta(func() {
		for qi, q := range queries {
			if nb := search(pass, int64(qi), q, traced, &verifyLat, nil); nb != nil {
				score.add(nb, truth[qi])
			}
		}
	})
	b.tr.finish(pass)
	b.set("core.allocs_per_query", allocs/float64(len(queries)))
	b.set("core.alloc_bytes_per_query", bytes/float64(len(queries)))
	score.emit(b)
	// Reads since the reopen over the searches since the reopen: with
	// one client and no writes the count repeats exactly.
	b.set("page_reads_per_query", float64(idx.IOStats().Reads)/float64(len(queries)))
	if !traced {
		return nil
	}

	// Traced extras on the read-only index: what tracing costs, and
	// what the two-shard scatter adds over its slower shard alone.
	var plain timings
	for _, q := range queries {
		search(-1, -1, q, false, &plain, nil)
	}
	b.set("bench.trace_overhead_pct", 100*ratio(median(verifyLat.us)-median(plain.us), median(plain.us)))
	err = idx.Close()
	idx = nil
	if err != nil {
		return err
	}
	alone := make([][]float64, shards)
	for s := range alone {
		if alone[s], err = shardAlone(ctx, shardDir(dir, s), opts, queries, plainOpts); err != nil {
			return fmt.Errorf("shard %d alone: %w", s, err)
		}
	}
	overhead := make([]float64, min(len(plain.us), len(alone[0]), len(alone[1])))
	for qi := range overhead {
		overhead[qi] = plain.us[qi] - max(alone[0][qi], alone[1][qi]) // shards == 2
	}
	b.set("shard.scatter_overhead_us", median(overhead))
	return nil
}

// shardAlone opens one shard directory as an index of its own and times
// the queries on it, after one pass to warm its pools as the sharded
// passes found them.
func shardAlone(ctx context.Context, dir string, opts hdindex.Options, queries [][]float32, qo []hdindex.QueryOption) ([]float64, error) {
	sh, err := hdindex.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	us := make([]float64, 0, len(queries))
	for pass := 0; pass < 2; pass++ {
		us = us[:0]
		for _, q := range queries {
			t0 := time.Now()
			if _, err := sh.Query(ctx, q, k, qo...); err != nil {
				return nil, err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	return us, nil
}
