package bptree

import (
	"bytes"
	"errors"

	"github.com/hd-index/hdindex/internal/pager"
)

// EntrySource yields key/value pairs in non-decreasing key order for bulk
// loading. Next returns false when exhausted. The returned slices are only
// valid until the next call.
type EntrySource interface {
	Next() (key, value []byte, ok bool)
}

// SliceSource adapts in-memory parallel slices to an EntrySource.
type SliceSource struct {
	Keys   [][]byte
	Values [][]byte
	i      int
}

// Next implements EntrySource.
func (s *SliceSource) Next() (key, value []byte, ok bool) {
	if s.i >= len(s.Keys) {
		return nil, nil, false
	}
	k := s.Keys[s.i]
	var v []byte
	if s.Values != nil {
		v = s.Values[s.i]
	}
	s.i++
	return k, v, true
}

var errNotFresh = errors.New("bptree: bulk load into a tree that is not fresh (trees are write-once)")

// BulkLoad builds a fresh tree bottom-up from a sorted entry stream. This
// mirrors the paper's offline construction (Algorithm 1): leaves are
// packed to the leaf order Ω left to right, then each internal level is
// packed on top.
//
// Trees are write-once. BulkLoad is the only writer, and on a tree that
// is not fresh it returns an error. The empty root leaf Create allocated
// becomes the first leaf, and each leaf stays pinned until its right
// sibling is allocated, so both of its links are set before it is
// released: every page is written once and none is read back. On empty
// input the Create leaf stays the root.
func (t *Tree) BulkLoad(src EntrySource) error {
	// Fresh is as Create left it: no entries, and the root the empty leaf
	// that is the file's last page.
	if t.count != 0 || t.height != 1 || uint64(t.root)+1 != t.pgr.PageCount() {
		return errNotFresh
	}
	type childRef struct {
		firstKey []byte
		id       pager.PageID
	}
	var level []childRef

	// ---- leaf level ----
	var (
		cur     *pager.Page // the leaf being filled, pinned
		curN    int
		prevKey []byte
		n       uint64
	)
	defer func() {
		if cur != nil { // an error left it unfinished
			cur.Release()
		}
	}()
	finishLeaf := func(right pager.PageID) {
		setLeafCount(cur.Data, curN)
		setLeafRight(cur.Data, right)
		cur.MarkDirty()
		cur.Release()
	}
	for {
		key, val, ok := src.Next()
		if !ok {
			break
		}
		switch {
		case len(key) != t.keyLen:
			return ErrKeyLen
		case len(val) != t.valLen:
			return ErrValueLen
		case prevKey != nil && bytes.Compare(prevKey, key) > 0:
			return ErrNotSorted
		}
		prevKey = append(prevKey[:0], key...)
		if cur == nil || curN == t.leafCap {
			var pg *pager.Page
			var err error
			if cur == nil {
				pg, err = t.pgr.Get(t.root) // the Create leaf, still in the pool
			} else {
				pg, err = t.pgr.Alloc()
			}
			if err != nil {
				return err
			}
			initLeaf(pg.Data)
			if cur != nil {
				setLeafLeft(pg.Data, cur.ID)
				finishLeaf(pg.ID)
			}
			cur, curN = pg, 0
			level = append(level, childRef{firstKey: append([]byte(nil), key...), id: pg.ID})
		}
		copy(t.leafKey(cur.Data, curN), key)
		copy(t.leafVal(cur.Data, curN), val)
		curN++
		n++
	}
	if cur == nil {
		return t.Flush()
	}
	t.firstLeaf, t.lastLeaf = t.root, cur.ID
	finishLeaf(0)
	cur = nil

	// ---- internal levels ----
	height := 1
	for len(level) > 1 {
		var next []childRef
		i := 0
		for i < len(level) {
			run := len(level) - i
			if run > t.branchCap+1 {
				run = t.branchCap + 1
			}
			// Avoid a trailing single-child node: borrow from this run.
			if rem := len(level) - i - run; rem == 1 && run > 2 {
				run--
			}
			pg, err := t.pgr.Alloc()
			if err != nil {
				return err
			}
			initInternal(pg.Data)
			setInternalCount(pg.Data, run-1)
			for j := 0; j < run; j++ {
				setInternalChild(pg.Data, j, level[i+j].id)
				if j > 0 {
					copy(t.internalKey(pg.Data, j-1), level[i+j].firstKey)
				}
			}
			pg.MarkDirty()
			next = append(next, childRef{firstKey: level[i].firstKey, id: pg.ID})
			pg.Release()
			i += run
		}
		level = next
		height++
	}
	t.root = level[0].id
	t.height = height
	t.count = n
	return t.Flush()
}
