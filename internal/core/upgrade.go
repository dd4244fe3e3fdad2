package core

import (
	"encoding/binary"
	"math"

	"github.com/hd-index/hdindex/internal/bptree"
	"github.com/hd-index/hdindex/internal/rdbtree"
)

// upgradeTrees rewrites trees of the interleaved leaf layout entry for
// entry into generation gen+1 and commits them through meta.json as a
// compaction does; nothing else changes, no answer either. A crash
// leaves the old generation to rewrite or the new one's stale files.
func (ix *Index) upgradeTrees() error {
	oldGen, newGen := ix.gen, ix.gen+1
	newTrees := make([]*rdbtree.Tree, len(ix.trees))
	var err error
	for t := 0; t < len(newTrees) && err == nil; t++ {
		newTrees[t], err = ix.upgradeTree(t, newGen)
	}
	if err == nil {
		ix.gen = newGen
		if err = ix.writeMeta(); err != nil {
			ix.gen = oldGen
		}
	}
	if err != nil {
		ix.dropTrees(newTrees, newGen)
		return err
	}
	ix.dropTrees(ix.trees, oldGen)
	ix.trees = newTrees
	return nil
}

// upgradeTree writes legacy tree t into generation gen. The legacy value
// is an 8-byte big-endian slot, then m little-endian float32 distances.
func (ix *Index) upgradeTree(t int, gen uint64) (*rdbtree.Tree, error) {
	pgr, err := ix.openPager(ix.cache, ix.treeGenPath(t, ix.gen), false)
	if err != nil {
		return nil, err
	}
	defer pgr.Close()
	m := ix.params.M
	var keys []byte
	var slots []uint64
	var rd []float32
	err = bptree.ReadLegacy(pgr, ix.curves[t].KeyLen(), 8+4*m, func(k, v []byte) error {
		keys = append(keys, k...)
		slots = append(slots, binary.BigEndian.Uint64(v))
		for i := range m {
			rd = append(rd, math.Float32frombits(binary.LittleEndian.Uint32(v[8+4*i:])))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ix.writeTree(ix.treeGenPath(t, gen), keys, identityPerm(len(slots)), slots, rd)
}
