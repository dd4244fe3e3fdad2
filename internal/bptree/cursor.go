package bptree

import (
	"bytes"
	"context"

	"github.com/hd-index/hdindex/internal/hilbert"
	"github.com/hd-index/hdindex/internal/pager"
)

// Cursor iterates leaf entries in key order, in both directions — the
// access pattern of the α-candidate retrieval (§4.1), which walks outward
// from the query key's position along the leaf sibling chain.
//
// A cursor pins at most one leaf page at a time. The Key/Value accessors
// return slices into that page; callers must copy data they retain past
// the next cursor movement. Close the cursor when done.
type Cursor struct {
	t     *Tree
	page  *pager.Page
	idx   int
	valid bool
}

// NewCursor returns an unpositioned cursor.
func (t *Tree) NewCursor() *Cursor {
	return &Cursor{t: t}
}

// Close releases any pinned page. The cursor may be re-Seeked afterwards.
func (c *Cursor) Close() {
	if c.page != nil {
		c.page.Release()
		c.page = nil
	}
	c.valid = false
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns the current key (a view into the pinned page).
func (c *Cursor) Key() []byte { return c.t.leafKey(c.page.Data, c.idx) }

// Value returns the current value (a view into the pinned page).
func (c *Cursor) Value() []byte { return c.t.leafVal(c.page.Data, c.idx) }

func (c *Cursor) load(id pager.PageID) error {
	if c.page != nil {
		c.page.Release()
		c.page = nil
	}
	if id == 0 {
		c.valid = false
		return nil
	}
	pg, err := c.t.pgr.Get(id)
	if err != nil {
		c.valid = false
		return err
	}
	c.page = pg
	return nil
}

// Seek positions the cursor at the first entry with key >= target
// (the lower bound). If no such entry exists the cursor is invalid but
// SeekForPrev-style access is still possible via Prev on a Last-positioned
// cursor. Returns any I/O error.
func (c *Cursor) Seek(target []byte) error {
	c.Close()
	leaf, err := c.t.descend(target, nil)
	if err != nil {
		return err
	}
	c.page = leaf
	c.idx = c.t.leafLowerBound(leaf.Data, target)
	if c.idx == leafCount(leaf.Data) {
		// All entries here are < target; the lower bound is the first
		// entry of the right sibling (or nothing).
		right := leafRight(leaf.Data)
		if err := c.load(right); err != nil {
			return err
		}
		if c.page == nil {
			return nil
		}
		c.idx = 0
		if leafCount(c.page.Data) == 0 {
			c.valid = false
			return nil
		}
		c.valid = true
		return nil
	}
	c.valid = true
	// Duplicates equal to target may extend into the left sibling when a
	// run of equal keys spans a leaf boundary; walk back to the true
	// lower bound.
	for c.idx == 0 {
		leftID := leafLeft(c.page.Data)
		if leftID == 0 {
			break
		}
		lp, err := c.t.pgr.Get(leftID)
		if err != nil {
			return err
		}
		ln := leafCount(lp.Data)
		if ln == 0 || bytes.Compare(c.t.leafKey(lp.Data, ln-1), target) < 0 {
			lp.Release()
			break
		}
		c.page.Release()
		c.page = lp
		c.idx = c.t.leafLowerBound(lp.Data, target)
	}
	return nil
}

// First positions the cursor at the smallest entry.
func (c *Cursor) First() error {
	c.Close()
	if err := c.load(c.t.firstLeaf); err != nil {
		return err
	}
	for c.page != nil && leafCount(c.page.Data) == 0 {
		if err := c.load(leafRight(c.page.Data)); err != nil {
			return err
		}
	}
	if c.page == nil {
		c.valid = false
		return nil
	}
	c.idx = 0
	c.valid = true
	return nil
}

// Last positions the cursor at the largest entry.
func (c *Cursor) Last() error {
	c.Close()
	if err := c.load(c.t.lastLeaf); err != nil {
		return err
	}
	for c.page != nil && leafCount(c.page.Data) == 0 {
		if err := c.load(leafLeft(c.page.Data)); err != nil {
			return err
		}
	}
	if c.page == nil {
		c.valid = false
		return nil
	}
	c.idx = leafCount(c.page.Data) - 1
	c.valid = true
	return nil
}

// Next advances to the next entry in key order; the cursor becomes
// invalid past the last entry.
func (c *Cursor) Next() error {
	if !c.valid {
		return nil
	}
	c.idx++
	for c.idx >= leafCount(c.page.Data) {
		right := leafRight(c.page.Data)
		if err := c.load(right); err != nil {
			return err
		}
		if c.page == nil {
			return nil
		}
		c.idx = 0
	}
	c.valid = true
	return nil
}

// Prev moves to the previous entry in key order; the cursor becomes
// invalid before the first entry.
func (c *Cursor) Prev() error {
	if !c.valid {
		return nil
	}
	c.idx--
	for c.idx < 0 {
		left := leafLeft(c.page.Data)
		if err := c.load(left); err != nil {
			return err
		}
		if c.page == nil {
			return nil
		}
		c.idx = leafCount(c.page.Data) - 1
	}
	c.valid = true
	return nil
}

// Clone returns an independent cursor at the same position. It is how the
// bidirectional α-scan forks left- and right-moving cursors from the seek
// position.
func (c *Cursor) Clone() (*Cursor, error) {
	n := &Cursor{t: c.t, idx: c.idx, valid: c.valid}
	if c.page != nil {
		pg, err := c.t.pgr.Get(c.page.ID)
		if err != nil {
			return nil, err
		}
		n.page = pg
	}
	return n, nil
}

// walkCheckEvery is how many entries WalkNearest yields between context
// checks: the leaf-chain walk is a query's dominant I/O phase, so a
// cancelled walk stops within a few page reads.
const walkCheckEvery = 256

// WalkNearest is the α-nearest walk of §4.1: it passes fn the values of
// up to n entries whose keys are numerically nearest to key (keys read
// as big-endian integers), nearest first. It seeks the key's would-be
// position and walks outward along the leaf chain, always consuming the
// side whose next key is closer; ties go right — keys >= the query key
// are preferred, the same convention a forward range scan would use.
// The value passed to fn is a view into a pinned page, valid only until
// fn returns.
func (t *Tree) WalkNearest(ctx context.Context, key []byte, n int, fn func(value []byte)) error {
	right := t.NewCursor()
	defer right.Close()
	if err := right.Seek(key); err != nil {
		return err
	}
	left, err := right.Clone()
	if err != nil {
		return err
	}
	defer left.Close()
	if left.Valid() {
		err = left.Prev()
	} else {
		// Query key past the end: left scan starts at the last entry.
		err = left.Last()
	}
	for i := 0; err == nil && i < n && (left.Valid() || right.Valid()); i++ {
		if i%walkCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !left.Valid() || (right.Valid() && hilbert.CloserKey(key, left.Key(), right.Key()) >= 0) {
			fn(right.Value())
			err = right.Next()
		} else {
			fn(left.Value())
			err = left.Prev()
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
