package bptree

import (
	"bytes"
	"context"
	"fmt"

	"github.com/hd-index/hdindex/internal/hilbert"
	"github.com/hd-index/hdindex/internal/pager"
)

// Cursor iterates leaf entries in key order, in both directions — the
// access pattern of the α-candidate retrieval (§4.1), which walks outward
// from the query key's position along the leaf sibling chain.
//
// A cursor pins at most one leaf page at a time, as a pager.View: moving
// it allocates nothing. The Key/Value accessors return slices into that
// page; callers must copy data they retain past the next cursor
// movement. Close the cursor when done.
type Cursor struct {
	t     *Tree
	leaf  pager.View   // pinned while id != 0
	id    pager.PageID // the pinned leaf, 0 = none
	idx   int
	valid bool
}

// NewCursor returns an unpositioned cursor.
func (t *Tree) NewCursor() *Cursor {
	return &Cursor{t: t}
}

// Close releases any pinned page. The cursor may be re-Seeked afterwards.
func (c *Cursor) Close() {
	if c.id != 0 {
		c.leaf.Release()
		c.id = 0
	}
	c.valid = false
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns the current key (a view into the pinned page).
func (c *Cursor) Key() []byte { return c.t.leafKey(c.leaf.Data, c.idx) }

// Value returns the current value (a view into the pinned page).
func (c *Cursor) Value() []byte { return c.t.leafVal(c.leaf.Data, c.idx) }

// load swaps the pinned leaf for page id, releasing first, and leaves
// the cursor valid when the leaf holds an entry; id 0 — the end of the
// sibling chain — leaves it unpinned and invalid. Only an empty tree's
// root leaf is empty, so a sibling link to an empty leaf is corrupt:
// each move along the chain is then one hop, never a loop over pages.
func (c *Cursor) load(id pager.PageID) error {
	c.Close()
	if id == 0 {
		return nil
	}
	v, err := c.t.viewLeaf(id)
	if err != nil {
		return err
	}
	c.leaf, c.id, c.valid = v, id, leafCount(v.Data) > 0
	return nil
}

// hop moves to the sibling leaf id, which must hold an entry (see load).
func (c *Cursor) hop(id pager.PageID) error {
	if err := c.load(id); err != nil || c.valid || c.id == 0 {
		return err
	}
	c.Close()
	return fmt.Errorf("%w: empty leaf %d on the sibling chain", ErrCorrupt, id)
}

// Seek positions the cursor at the first entry with key >= target
// (the lower bound). If no such entry exists the cursor is invalid but
// SeekForPrev-style access is still possible via Prev on a Last-positioned
// cursor. Returns any I/O error.
func (c *Cursor) Seek(target []byte) error {
	c.Close()
	id, err := c.t.descend(target)
	if err != nil {
		return err
	}
	if c.leaf, err = c.t.viewLeaf(id); err != nil {
		return err
	}
	c.id = id
	c.idx = c.t.leafLowerBound(c.leaf.Data, target)
	if c.idx == leafCount(c.leaf.Data) {
		// All entries here are < target; the lower bound is the first
		// entry of the right sibling (or nothing).
		c.idx = 0
		return c.hop(leafRight(c.leaf.Data))
	}
	c.valid = true
	// Duplicates equal to target may extend into the left sibling when a
	// run of equal keys spans a leaf boundary; walk back to the true
	// lower bound. A walk longer than the file has pages has met a cycle
	// of corrupt links.
	for hops := uint64(0); c.idx == 0; hops++ {
		leftID := leafLeft(c.leaf.Data)
		if leftID == 0 {
			break
		}
		if hops == c.t.pgr.PageCount() {
			return fmt.Errorf("%w: the left links from leaf %d form a cycle", ErrCorrupt, c.id)
		}
		lv, err := c.t.viewLeaf(leftID)
		if err != nil {
			return err
		}
		ln := leafCount(lv.Data)
		if ln == 0 || bytes.Compare(c.t.leafKey(lv.Data, ln-1), target) < 0 {
			lv.Release()
			break
		}
		c.leaf.Release()
		c.leaf, c.id = lv, leftID
		c.idx = c.t.leafLowerBound(lv.Data, target)
	}
	return nil
}

// First positions the cursor at the smallest entry.
func (c *Cursor) First() error {
	c.idx = 0
	return c.load(c.t.firstLeaf)
}

// Last positions the cursor at the largest entry.
func (c *Cursor) Last() error {
	err := c.load(c.t.lastLeaf)
	if c.valid {
		c.idx = leafCount(c.leaf.Data) - 1
	}
	return err
}

// Next advances to the next entry in key order; the cursor becomes
// invalid past the last entry.
func (c *Cursor) Next() error {
	if !c.valid {
		return nil
	}
	if c.idx++; c.idx < leafCount(c.leaf.Data) {
		return nil
	}
	c.idx = 0
	return c.hop(leafRight(c.leaf.Data))
}

// Prev moves to the previous entry in key order; the cursor becomes
// invalid before the first entry.
func (c *Cursor) Prev() error {
	if !c.valid {
		return nil
	}
	if c.idx--; c.idx >= 0 {
		return nil
	}
	err := c.hop(leafLeft(c.leaf.Data))
	if c.valid {
		c.idx = leafCount(c.leaf.Data) - 1
	}
	return err
}

// advance moves the cursor run >= 1 entries on in direction step (+1 or
// -1), all of them in the pinned leaf, landing on the sibling leaf if
// the run ended this one.
func (c *Cursor) advance(run, step int) error {
	c.idx += (run - 1) * step
	if step > 0 {
		return c.Next()
	}
	return c.Prev()
}

// WalkNearest is the α-nearest walk of §4.1: it passes fn the values of
// up to n entries whose keys are numerically nearest to key (keys read
// as big-endian integers), nearest first. It seeks the key's would-be
// position and walks outward along the leaf chain, always consuming the
// side whose next key is closer; ties go right — keys >= the query key
// are preferred, the same convention a forward range scan would use.
//
// The values go out in runs: those of consecutive entries of one pinned
// leaf, in key order. The runs in delivery order, each descending one
// (walked leftwards, nearest last) reversed, are the walk's sequence.
//
// The direction is decided a leaf at a time where it can be: keys only
// move away from the query along either side, so when the far end of
// one side's pinned leaf is still closer than the other side's next key,
// the rest of that leaf goes out as one run — exactly the entries an
// entry-by-entry comparison would have taken consecutively. Only where
// the two pinned leaves' key ranges interleave is each entry compared.
// ctx is checked once per step, so a cancelled walk stops within the
// leaves it has pinned.
//
// A run is a view into a pinned page, valid only until fn returns.
func (t *Tree) WalkNearest(ctx context.Context, key []byte, n int, fn func(run []byte, descending bool)) error {
	right := Cursor{t: t}
	defer right.Close()
	if err := right.Seek(key); err != nil {
		return err
	}
	// The left side starts one entry before the seek position — at the
	// last entry, when the query key is past the end.
	left := Cursor{t: t}
	defer left.Close()
	var err error
	if right.valid {
		if err = left.load(right.id); err == nil {
			left.idx, left.valid = right.idx, true
			err = left.Prev()
		}
	} else {
		err = left.Last()
	}
	for err == nil && n > 0 && (left.valid || right.valid) {
		if err = ctx.Err(); err != nil {
			break
		}
		// Each side's pinned leaf and next entry, walking outward: left
		// runs li down to 0, right runs ri up to rend-1.
		ldata, li := left.leaf.Data, left.idx
		rdata, ri := right.leaf.Data, right.idx
		rend := 0
		if right.valid {
			rend = leafCount(rdata)
		}
		switch {
		case !left.valid || (right.valid && hilbert.CloserKey(key, t.leafKey(ldata, li), t.leafKey(rdata, rend-1)) >= 0):
			ri = min(rend, ri+n)
			fn(t.leafVals(rdata, right.idx, ri), false)
		case !right.valid || hilbert.CloserKey(key, t.leafKey(ldata, 0), t.leafKey(rdata, ri)) < 0:
			li = max(0, li+1-n) - 1
			fn(t.leafVals(ldata, li+1, left.idx+1), true)
		default:
			// A side's run goes out when the other side takes an entry.
			rs, ls := ri, li
			for m := n; m > 0 && li >= 0 && ri < rend; m-- {
				if hilbert.CloserKey(key, t.leafKey(ldata, li), t.leafKey(rdata, ri)) >= 0 {
					if li < ls {
						fn(t.leafVals(ldata, li+1, ls+1), true)
						ls = li
					}
					ri++
				} else {
					if ri > rs {
						fn(t.leafVals(rdata, rs, ri), false)
						rs = ri
					}
					li--
				}
			}
			if ri > rs {
				fn(t.leafVals(rdata, rs, ri), false)
			}
			if li < ls {
				fn(t.leafVals(ldata, li+1, ls+1), true)
			}
		}
		if run := ri - right.idx; run > 0 {
			n -= run
			err = right.advance(run, +1)
		}
		if run := left.idx - li; run > 0 && err == nil {
			n -= run
			err = left.advance(run, -1)
		}
	}
	return err
}

// Scan invokes fn for each entry with lo <= key <= hi (inclusive bounds),
// stopping early if fn returns false. Used by the iDistance and QALSH
// range probes. The slices passed to fn are views; copy to retain.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	c := t.NewCursor()
	defer c.Close()
	if err := c.Seek(lo); err != nil {
		return err
	}
	for c.Valid() {
		if hi != nil && bytes.Compare(c.Key(), hi) > 0 {
			return nil
		}
		if !fn(c.Key(), c.Value()) {
			return nil
		}
		if err := c.Next(); err != nil {
			return err
		}
	}
	return nil
}

// CheckLeaves walks the internal levels (checkLevels), then the whole
// leaf chain from the first leaf, passing fn every entry in order, and
// verifies what a scan silently trusts: every page on the chain is a
// leaf within its capacity, each leaf's left link names the leaf the
// walk came from, keys never decrease within or across leaves, the
// chain ends at the recorded last leaf, and the entries add up to
// Count. The first violation, or fn's first error, stops the walk.
func (t *Tree) CheckLeaves(fn func(key, value []byte) error) error {
	var visits uint64
	if err := t.checkLevels(t.root, t.height, nil, nil, &visits); err != nil {
		return err
	}
	var prev pager.PageID
	var last []byte
	var total, leaves uint64
	for id := t.firstLeaf; id != 0; {
		if leaves++; leaves > t.pgr.PageCount() {
			return fmt.Errorf("%w: the leaf chain is longer than the file (a cycle)", ErrCorrupt)
		}
		v, err := t.pgr.View(id)
		if err != nil {
			return err
		}
		err = func() error {
			if nodeType(v.Data) != pageLeaf {
				return fmt.Errorf("%w: page %d on the leaf chain is not a leaf", ErrCorrupt, id)
			}
			n := leafCount(v.Data)
			if n > t.leafCap {
				return fmt.Errorf("%w: leaf %d holds %d entries, capacity %d", ErrCorrupt, id, n, t.leafCap)
			}
			if left := leafLeft(v.Data); left != prev {
				return fmt.Errorf("%w: leaf %d links left to %d, the chain came from %d", ErrCorrupt, id, left, prev)
			}
			for i := 0; i < n; i++ {
				key := t.leafKey(v.Data, i)
				if bytes.Compare(key, last) < 0 {
					return fmt.Errorf("%w: leaf %d entry %d: key %x after %x", ErrCorrupt, id, i, key, last)
				}
				last = append(last[:0], key...)
				if err := fn(key, t.leafVal(v.Data, i)); err != nil {
					return err
				}
			}
			total += uint64(n)
			return nil
		}()
		next := leafRight(v.Data)
		v.Release()
		if err != nil {
			return err
		}
		prev, id = id, next
	}
	if prev != t.lastLeaf {
		return fmt.Errorf("%w: the leaf chain ends at page %d, the header's last leaf is %d", ErrCorrupt, prev, t.lastLeaf)
	}
	if total != t.count {
		return fmt.Errorf("%w: the leaf chain holds %d entries, the header counts %d", ErrCorrupt, total, t.count)
	}
	return nil
}

// checkLevels checks what Seek assumes of the subtree at page id, level
// levels above the leaves, whose keys the separators above bound to
// [lo, hi] (nil bounds nothing; inclusive, as duplicates may span
// leaves): each node above level 1 is internal, within capacity, its
// separators ascending within [lo, hi]; each page at level 1 is a leaf
// within capacity, so all leaves sit at one depth, and holds keys in
// its bounds. More visits than the file has pages mean a cycle.
func (t *Tree) checkLevels(id pager.PageID, level int, lo, hi []byte, visits *uint64) error {
	if *visits++; *visits > t.pgr.PageCount() {
		return fmt.Errorf("%w: the internal levels reach more pages than the file holds", ErrCorrupt)
	}
	v, err := t.pgr.View(id)
	if err != nil {
		return err
	}
	within := func(k []byte) bool {
		return (lo == nil || bytes.Compare(k, lo) >= 0) && (hi == nil || bytes.Compare(k, hi) <= 0)
	}
	if level == 1 {
		defer v.Release()
		if nodeType(v.Data) != pageLeaf || leafCount(v.Data) > t.leafCap {
			return fmt.Errorf("%w: page %d at the leaf level is not a leaf within capacity", ErrCorrupt, id)
		}
		for i := range leafCount(v.Data) {
			if k := t.leafKey(v.Data, i); !within(k) {
				return fmt.Errorf("%w: leaf %d entry %d: key %x outside its separators [%x, %x]", ErrCorrupt, id, i, k, lo, hi)
			}
		}
		return nil
	}
	if nodeType(v.Data) != pageInternal || internalCount(v.Data) > t.branchCap {
		v.Release()
		return fmt.Errorf("%w: page %d is not an internal node within capacity (level %d)", ErrCorrupt, id, level)
	}
	// Copied out, bounded by lo and hi: the children pin pages of their own.
	n := internalCount(v.Data)
	children, seps := make([]pager.PageID, n+1), make([][]byte, n+2)
	seps[0], seps[n+1] = lo, hi
	for i := range children {
		children[i] = internalChild(v.Data, i)
	}
	for i := 1; i <= n; i++ {
		seps[i] = bytes.Clone(t.internalKey(v.Data, i-1))
	}
	v.Release()
	for i := 1; i <= n; i++ {
		if !within(seps[i]) || (i > 1 && bytes.Compare(seps[i], seps[i-1]) < 0) {
			return fmt.Errorf("%w: page %d separator %d is %x, outside [%x, %x] or below its predecessor", ErrCorrupt, id, i-1, seps[i], lo, hi)
		}
	}
	for i, child := range children {
		if err := t.checkLevels(child, level-1, seps[i], seps[i+1], visits); err != nil {
			return err
		}
	}
	return nil
}
