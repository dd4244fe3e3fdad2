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
// is not fresh it returns an error. It assembles each page in a buffer of
// its own and writes it once, whole, reading nothing back: pages are
// appended in order, so a leaf knows its right sibling's id before it is
// written. The root leaf Create named becomes the first leaf. On empty
// input the tree stays one empty root leaf, which Flush writes.
func (t *Tree) BulkLoad(src EntrySource) error {
	// Fresh is as Create left it: no entries, and the root the empty leaf
	// that is the file's next page, or its last once a Flush wrote it.
	if t.count != 0 || t.height != 1 || uint64(t.root)+1 < t.pgr.PageCount() {
		return errNotFresh
	}
	type childRef struct {
		firstKey []byte
		id       pager.PageID
	}
	var level []childRef
	buf := make([]byte, t.pgr.PageSize())

	// ---- leaf level ----
	var (
		cur     = t.root // the page buf becomes
		curN    int
		prevKey []byte
		n       uint64
	)
	finishLeaf := func(right pager.PageID) error {
		setLeafCount(buf, curN)
		setLeafRight(buf, right)
		return t.pgr.Write(cur, buf)
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
		if level == nil || curN == t.leafCap {
			if level != nil {
				if err := finishLeaf(cur + 1); err != nil {
					return err
				}
				cur++
			}
			clear(buf)
			initLeaf(buf)
			if cur != t.root {
				setLeafLeft(buf, cur-1)
			}
			curN = 0
			level = append(level, childRef{firstKey: append([]byte(nil), key...), id: cur})
		}
		copy(t.leafKey(buf, curN), key)
		copy(t.leafVal(buf, curN), val)
		curN++
		n++
	}
	if level == nil {
		return t.Flush()
	}
	if err := finishLeaf(0); err != nil {
		return err
	}
	t.firstLeaf, t.lastLeaf = t.root, cur

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
			clear(buf)
			initInternal(buf)
			setInternalCount(buf, run-1)
			for j := 0; j < run; j++ {
				setInternalChild(buf, j, level[i+j].id)
				if j > 0 {
					copy(t.internalKey(buf, j-1), level[i+j].firstKey)
				}
			}
			id := pager.PageID(t.pgr.PageCount())
			if err := t.pgr.Write(id, buf); err != nil {
				return err
			}
			next = append(next, childRef{firstKey: level[i].firstKey, id: id})
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
