package bptree

import (
	"bytes"
	"github.com/hd-index/hdindex/internal/pager"
)

// Insert adds one entry, keeping duplicates in insertion order among equal
// keys. It implements §3.6: B+-trees are naturally update-friendly, so a
// new object only costs its Hilbert key computation plus this insert.
func (t *Tree) Insert(key, value []byte) error {
	if len(key) != t.keyLen {
		return ErrKeyLen
	}
	if len(value) != t.valLen {
		return ErrValueLen
	}
	var path []pathStep
	leafID, err := t.descend(key, &path)
	if err != nil {
		return err
	}
	leaf, err := t.pgr.Get(leafID)
	if err != nil {
		return err
	}
	if nodeType(leaf.Data) != pageLeaf {
		leaf.Release()
		return errNotLeaf
	}

	n := leafCount(leaf.Data)
	if n < t.leafCap {
		t.leafInsertAt(leaf.Data, t.leafUpperBound(leaf.Data, key), key, value)
		leaf.MarkDirty()
		leaf.Release()
		t.count++
		return t.writeHeader()
	}

	// Leaf split: allocate a right sibling, move the upper half.
	right, err := t.pgr.Alloc()
	if err != nil {
		leaf.Release()
		return err
	}
	initLeaf(right.Data)
	mid := n / 2
	es := t.entrySize()
	copy(right.Data[leafHeader:], leaf.Data[leafHeader+mid*es:leafHeader+n*es])
	setLeafCount(right.Data, n-mid)
	setLeafCount(leaf.Data, mid)

	// Rewire the sibling chain: leaf <-> right <-> oldRight.
	oldRight := leafRight(leaf.Data)
	setLeafRight(leaf.Data, right.ID)
	setLeafLeft(right.Data, leaf.ID)
	setLeafRight(right.Data, oldRight)
	if oldRight != 0 {
		orp, err := t.pgr.Get(oldRight)
		if err != nil {
			leaf.Release()
			right.Release()
			return err
		}
		setLeafLeft(orp.Data, right.ID)
		orp.MarkDirty()
		orp.Release()
	} else {
		t.lastLeaf = right.ID
	}

	// Place the new entry. Keys strictly below the right half's first key
	// go left; everything else goes right (equal keys land after their
	// duplicates via the upper bound). Either way the right half's first
	// key is unchanged, so it is a valid separator: every key in the
	// right subtree is >= sep and every key left of it is < sep.
	sep := append([]byte(nil), t.leafKey(right.Data, 0)...)
	if bytes.Compare(key, sep) < 0 {
		t.leafInsertAt(leaf.Data, t.leafUpperBound(leaf.Data, key), key, value)
	} else {
		t.leafInsertAt(right.Data, t.leafUpperBound(right.Data, key), key, value)
	}
	leaf.MarkDirty()
	right.MarkDirty()
	rightID := right.ID
	leaf.Release()
	right.Release()
	t.count++

	// Propagate the separator up the recorded path.
	if err := t.insertIntoParent(path, sep, rightID); err != nil {
		return err
	}
	return t.writeHeader()
}

// leafInsertAt shifts entries right and writes (key, value) at index i.
func (t *Tree) leafInsertAt(data []byte, i int, key, value []byte) {
	n := leafCount(data)
	es := t.entrySize()
	copy(data[leafHeader+(i+1)*es:leafHeader+(n+1)*es], data[leafHeader+i*es:leafHeader+n*es])
	copy(t.leafKey(data, i), key)
	copy(t.leafVal(data, i), value)
	setLeafCount(data, n+1)
}

// insertIntoParent inserts (sep, rightID) into the parent chain described
// by path (deepest step last), splitting internal nodes as needed.
func (t *Tree) insertIntoParent(path []pathStep, sep []byte, rightID pager.PageID) error {
	for level := len(path) - 1; level >= 0; level-- {
		step := path[level]
		pg, err := t.pgr.Get(step.id)
		if err != nil {
			return err
		}
		n := internalCount(pg.Data)
		if n < t.branchCap {
			t.internalInsertAt(pg.Data, step.idx, sep, rightID)
			pg.MarkDirty()
			pg.Release()
			return nil
		}

		// Split the internal node. Current layout: n separators,
		// n+1 children, plus the pending (sep, rightID) at step.idx.
		keys := make([][]byte, 0, n+1)
		children := make([]pager.PageID, 0, n+2)
		for i := 0; i <= n; i++ {
			children = append(children, internalChild(pg.Data, i))
		}
		for i := 0; i < n; i++ {
			keys = append(keys, append([]byte(nil), t.internalKey(pg.Data, i)...))
		}
		keys = append(keys[:step.idx], append([][]byte{sep}, keys[step.idx:]...)...)
		children = append(children[:step.idx+1], append([]pager.PageID{rightID}, children[step.idx+1:]...)...)

		mid := len(keys) / 2
		promoted := keys[mid]

		writeInternal(t, pg.Data, keys[:mid], children[:mid+1])
		pg.MarkDirty()

		rpg, err := t.pgr.Alloc()
		if err != nil {
			pg.Release()
			return err
		}
		initInternal(rpg.Data)
		writeInternal(t, rpg.Data, keys[mid+1:], children[mid+1:])
		rpg.MarkDirty()

		sep = promoted
		rightID = rpg.ID
		rpg.Release()
		pg.Release()
	}

	// Root split: grow the tree by one level.
	rootPg, err := t.pgr.Alloc()
	if err != nil {
		return err
	}
	initInternal(rootPg.Data)
	setInternalCount(rootPg.Data, 1)
	setInternalChild(rootPg.Data, 0, t.root)
	setInternalChild(rootPg.Data, 1, rightID)
	copy(t.internalKey(rootPg.Data, 0), sep)
	rootPg.MarkDirty()
	t.root = rootPg.ID
	t.height++
	rootPg.Release()
	return nil
}

// internalInsertAt inserts separator sep at index i with right child id.
func (t *Tree) internalInsertAt(data []byte, i int, sep []byte, id pager.PageID) {
	n := internalCount(data)
	// Shift children (i+1 .. n) right by one slot.
	base := internalHeader
	copy(data[base+(i+2)*8:base+(n+2)*8], data[base+(i+1)*8:base+(n+1)*8])
	setInternalChild(data, i+1, id)
	// Shift keys (i .. n-1) right by one slot.
	kb := t.internalKeyOff(0)
	copy(data[kb+(i+1)*t.keyLen:kb+(n+1)*t.keyLen], data[kb+i*t.keyLen:kb+n*t.keyLen])
	copy(t.internalKey(data, i), sep)
	setInternalCount(data, n+1)
}

func writeInternal(t *Tree, data []byte, keys [][]byte, children []pager.PageID) {
	setInternalCount(data, len(keys))
	for i, id := range children {
		setInternalChild(data, i, id)
	}
	for i, k := range keys {
		copy(t.internalKey(data, i), k)
	}
}
