package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/hd-index/hdindex/internal/bptree"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/rdbtree"
)

// upgradeTrees rewrites trees of an earlier leaf layout — interleaved,
// or of float32 distances — entry for entry into generation gen+1 and
// commits them through meta.json as a compaction does; nothing else
// changes. A crash leaves the old generation to rewrite or the new
// one's stale files.
func (ix *Index) upgradeTrees() error {
	oldGen, newGen := ix.gen, ix.gen+1
	newTrees := make([]*rdbtree.Tree, len(ix.trees))
	var err error
	for t := 0; t < len(newTrees) && err == nil; t++ {
		newTrees[t], err = ix.upgradeTree(t, newGen)
	}
	if err == nil {
		err = ix.writeMeta(ix.vectors.Count(), newGen, nil)
	}
	if err != nil {
		ix.dropTrees(newTrees, newGen)
		return err
	}
	ix.dropTrees(ix.trees, oldGen)
	ix.trees, ix.gen = newTrees, newGen
	return nil
}

// upgradeTree writes tree t of an earlier layout into generation gen,
// its float32 distances coded as a Build codes them. An interleaved
// value is an 8-byte big-endian slot, then m little-endian float32
// distances; a value of the float32 layout has a 4-byte little-endian
// slot instead. Both readers check the tree as they walk it.
func (ix *Index) upgradeTree(t int, gen uint64) (*rdbtree.Tree, error) {
	pgr, err := ix.openPager(ix.treeGenPath(t, ix.gen), pager.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer pgr.Close()
	m, kl := ix.params.M, ix.curves[t].KeyLen()
	var keys []byte
	var slots []uint64
	var rd []float32
	read := func(slotLen int) func(k, v []byte) error {
		return func(k, v []byte) error {
			keys = append(keys, k...)
			if slotLen == 8 {
				slots = append(slots, binary.BigEndian.Uint64(v))
			} else {
				slots = append(slots, uint64(binary.LittleEndian.Uint32(v)))
			}
			for i := range m {
				rd = append(rd, math.Float32frombits(binary.LittleEndian.Uint32(v[slotLen+4*i:])))
			}
			return nil
		}
	}
	bt, err := bptree.Open(pgr)
	switch {
	case errors.Is(err, bptree.ErrLegacyLayout):
		err = bptree.ReadLegacy(pgr, kl, 8+4*m, read(8))
	case err == nil && bt.KeyLen() == kl && bt.ValLen() == 4+4*m:
		err = bt.CheckLeaves(read(4))
	case err == nil:
		err = fmt.Errorf("core: tree %d holds %d-byte keys and %d-byte values, not the float32 layout", t, bt.KeyLen(), bt.ValLen())
	}
	if err != nil {
		return nil, err
	}
	return ix.writeTree(ix.treeGenPath(t, gen), keys, identityPerm(len(slots)), slots, rd, rdbtree.Scale{})
}
