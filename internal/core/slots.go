package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/hd-index/hdindex/internal/pager"
)

// The slot space. Callers, the WAL and meta.json name an object by its
// id — its arrival number. The vector store and the tree leaves name it
// by its slot — where its vector sits in vectors.pg. Build makes the two
// differ on purpose: it writes the vectors in tree 0's Hilbert-key order,
// so the candidates of one query, neighbours on some curve, share pages
// instead of costing one each (the κ term of §4.4.1's I/O analysis).
// Everything between the leaf walk and the top-k push runs on slots;
// ids.pg translates at the two edges — a result on its way into the
// top-k, an id on its way into the deletion marks.
//
// Only the vectors Build saw are clustered: the first `base` slots.
// Every later object — memtable entry or compacted insert — keeps
// slot = id, an unclustered tail behind the base, until a rebuild
// re-clusters. A directory without ids.pg is base = 0: all tail, which is
// how directories written before the slot space open through this code.

const slotFile = "ids.pg"

// slotSpace is how many slots a leaf's 32 bits name; Build and Insert
// refuse an object past it. A variable so tests can reach it.
var slotSpace uint64 = 1 << 32

// ids.pg is a pager file. Its superblock metadata is the header below;
// the data region (page 1 on) holds 2·base little-endian uint32s packed
// back to back: slot→id for slots 0..base-1, then id→slot for ids
// 0..base-1. Written once by Build, never modified.
const (
	slotMagic     = "HDSLOTS\x01"
	slotHeaderLen = len(slotMagic) + 8 // magic, base
)

// ErrSlotMap reports an ids.pg that is not what meta.json promises.
var ErrSlotMap = errors.New("core: corrupt " + slotFile)

// slotMap translates between ids and slots. The zero value is the
// identity (base 0, no file).
type slotMap struct {
	pgr  *pager.Pager // nil when base == 0
	base uint64
	per  uint64 // uint32 entries per page
}

// encodeSlotHeader and decodeSlotHeader are ids.pg's header codec.
func encodeSlotHeader(base uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte(slotMagic), base)
}

func decodeSlotHeader(meta []byte) (base uint64, err error) {
	if len(meta) < slotHeaderLen || string(meta[:len(slotMagic)]) != slotMagic {
		return 0, fmt.Errorf("%w: bad header", ErrSlotMap)
	}
	return binary.BigEndian.Uint64(meta[len(slotMagic):]), nil
}

// createSlotMap writes a fresh ids.pg into pgr, each page assembled in
// a buffer and written once, and its header: order[s] is the id stored
// at slot s, slotOf its inverse. The caller syncs.
func createSlotMap(pgr *pager.Pager, order []uint32, slotOf []uint64) error {
	base, per := uint64(len(order)), uint64(pgr.PageSize()/4)
	entry := func(e uint64) uint32 {
		if e < base {
			return order[e]
		}
		return uint32(slotOf[e-base])
	}
	page := make([]byte, pgr.PageSize())
	for e := uint64(0); e < 2*base; {
		clear(page)
		for i := uint64(0); i < per && e < 2*base; i, e = i+1, e+1 {
			binary.LittleEndian.PutUint32(page[4*i:], entry(e))
		}
		if err := pgr.Write(pager.PageID(pgr.PageCount()), page); err != nil {
			return err
		}
	}
	return pgr.SetMeta(encodeSlotHeader(base))
}

// openSlotMap adopts an existing ids.pg, which must hold exactly the
// base meta.json recorded.
func openSlotMap(pgr *pager.Pager, base uint64) (slotMap, error) {
	got, err := decodeSlotHeader(pgr.Meta())
	if err != nil {
		return slotMap{}, err
	}
	m := slotMap{pgr: pgr, base: base, per: uint64(pgr.PageSize() / 4)}
	if got != base {
		return slotMap{}, fmt.Errorf("%w: header says %d clustered vectors, meta.json %d", ErrSlotMap, got, base)
	}
	if m.per == 0 || base > 1<<32 || pgr.PageCount() != 1+(2*base+m.per-1)/m.per {
		return slotMap{}, fmt.Errorf("%w: %d pages cannot hold 2 × %d entries", ErrSlotMap, pgr.PageCount(), base)
	}
	return m, nil
}

// entry reads the e-th uint32 of the data region, which must be below
// base: both arrays are permutations of [0, base).
func (m *slotMap) entry(e uint64) (uint64, error) {
	v, err := m.pgr.View(pager.PageID(1 + e/m.per))
	if err != nil {
		return 0, err
	}
	x := uint64(binary.LittleEndian.Uint32(v.Data[4*(e%m.per):]))
	v.Release()
	if x >= m.base {
		return 0, fmt.Errorf("%w: entry %d is %d, outside the %d clustered vectors", ErrSlotMap, e, x, m.base)
	}
	return x, nil
}

// id returns the id of the object stored at slot.
func (m *slotMap) id(slot uint64) (uint64, error) {
	if slot >= m.base {
		return slot, nil
	}
	return m.entry(slot)
}

// slot returns where object id is stored.
func (m *slotMap) slot(id uint64) (uint64, error) {
	if id >= m.base {
		return id, nil
	}
	return m.entry(m.base + id)
}
