// Package topk implements bounded top-k selection over (id, distance)
// pairs. Every method in the paper — HD-Index's refinement step, the
// baselines' candidate verification, and ground-truth computation — ends
// with "keep the k nearest", so this lives in one shared package.
package topk

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Item is a candidate object with its (possibly approximate) distance.
type Item struct {
	ID   uint64
	Dist float64
}

// List is a bounded max-heap keeping the k smallest items seen, ordered
// by (Dist, ID) lexicographically. Using the full pair as the key makes
// the retained set independent of push order even under distance ties —
// the property that lets callers reorder their candidate streams (e.g.
// core's page-ordered refinement) without changing the answer.
// The zero value is unusable; construct with New.
type List struct {
	k     int
	items []Item // max-heap on (Dist, ID)
}

// itemLess reports whether x orders strictly before y: nearer first,
// ties broken by smaller id.
func itemLess(x, y Item) bool {
	if x.Dist != y.Dist {
		return x.Dist < y.Dist
	}
	return x.ID < y.ID
}

// Sort orders items ascending by (Dist, ID): nearest first, ties by
// smaller id.
func Sort(items []Item) {
	slices.SortFunc(items, func(x, y Item) int {
		return cmp.Or(cmp.Compare(x.Dist, y.Dist), cmp.Compare(x.ID, y.ID))
	})
}

// New returns a List that retains the k nearest items pushed into it.
// It holds only what is pushed: nothing is set aside for k, so a k far
// above the number of items pushed costs nothing.
func New(k int) *List {
	if k < 1 {
		panic("topk: k must be >= 1")
	}
	return &List{k: k}
}

// K returns the bound this list was created with.
func (l *List) K() int { return l.k }

// Len returns the number of items currently held (<= k).
func (l *List) Len() int { return len(l.items) }

// Full reports whether k items are held.
func (l *List) Full() bool { return len(l.items) == l.k }

// Bound returns the current k-th smallest distance, or +Inf-like behaviour:
// if fewer than k items are held it returns ok=false.
func (l *List) Bound() (float64, bool) {
	if len(l.items) < l.k {
		return 0, false
	}
	return l.items[0].Dist, true
}

// Push offers an item; it is kept only if it is among the k smallest by
// (Dist, ID). Returns true if the item was retained.
func (l *List) Push(id uint64, d float64) bool {
	it := Item{id, d}
	if len(l.items) < l.k {
		l.items = append(l.items, it)
		l.up(len(l.items) - 1)
		return true
	}
	if !itemLess(it, l.items[0]) {
		return false
	}
	l.items[0] = it
	l.down(0)
	return true
}

// Items returns the retained items sorted by ascending (Dist, ID).
// The list is unchanged.
func (l *List) Items() []Item {
	return l.ItemsInto(nil)
}

// ItemsInto is Items reusing dst's capacity: the hot-path variant for
// callers that drain the same pooled list every query. The list is
// unchanged.
func (l *List) ItemsInto(dst []Item) []Item {
	dst = append(dst[:0], l.items...)
	Sort(dst)
	return dst
}

// Reset empties the list, keeping capacity.
func (l *List) Reset() { l.items = l.items[:0] }

func (l *List) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(l.items[p], l.items[i]) {
			break
		}
		l.items[p], l.items[i] = l.items[i], l.items[p]
		i = p
	}
}

func (l *List) down(i int) {
	n := len(l.items)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && itemLess(l.items[c], l.items[r]) {
			c = r
		}
		if !itemLess(l.items[i], l.items[c]) {
			return
		}
		l.items[i], l.items[c] = l.items[c], l.items[i]
		i = c
	}
}

// SelectK returns the k smallest items by (Dist, ID), reordering items
// in place — as a set: the order of the returned prefix is unspecified,
// and callers that need rank order Sort it. With k >= len(items) the
// input is returned untouched, with no ordering work at all. It is
// Selector.Select with the ids as the tie-break; NaN has no order.
func SelectK(items []Item, k int) []Item {
	if k >= len(items) {
		return items
	}
	s := selectKPool.Get().(*selectKScratch)
	defer selectKPool.Put(s)
	s.keys, s.ids = s.keys[:0], s.ids[:0]
	for _, it := range items {
		s.keys, s.ids = append(s.keys, orderKey(it.Dist)), append(s.ids, it.ID)
	}
	s.pos = s.sel.Select(s.pos, s.keys, s.ids, k)
	for j, p := range s.pos { // positions ascend: p >= j is never one still to move
		items[j] = items[p]
	}
	return items[:len(s.pos)]
}

type selectKScratch struct {
	sel       Selector
	keys, ids []uint64
	pos       []uint32
}

var selectKPool = sync.Pool{New: func() any { return new(selectKScratch) }}

// orderKey maps a distance to a uint64 that orders as it does: the sign
// bit set on a non-negative float's bits, a negative one's complemented,
// and -0 made by d+0 the +0 it equals.
func orderKey(d float64) uint64 {
	b := math.Float64bits(d + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// digitBits is the width of the digit a Selector ranks keys by per
// round; smallBucket the most keys it sorts instead of taking a round.
const digitBits, smallBucket = 11, 64

// Selector is a radix selection of the k smallest of n integer order
// keys in O(n). The zero value is ready; it holds only scratch, which a
// reused Selector keeps. Not safe for concurrent use.
type Selector struct {
	hist      [1 << digitBits]uint32
	pos       []uint32 // the positions left in kth's descent
	remaining []uint64 // and their keys
}

// Select returns, appended to dst[:0], the positions of the k smallest
// keys in ascending position order, ranked by (key, tie[i], i) — by
// (key, i) when tie is nil. It finds the k-th (kth), then writes every
// position ranking at or before it in one pass, branch-free when tie is
// nil: the keys are read, never moved.
func (s *Selector) Select(dst []uint32, keys, tie []uint64, k int) []uint32 {
	n := len(keys)
	dst = slices.Grow(dst[:0], n)[:n]
	if k <= 0 || k >= n { // none or all
		dst = dst[:min(max(k, 0), n)]
		for i := range dst {
			dst[i] = uint32(i)
		}
		return dst
	}
	c := s.kth(keys, tie, k)
	kc, kept := keys[c], 0
	if tie == nil { // up to c an equal key ranks at or before it, past c after
		for i := 0; i <= c; i++ {
			dst[kept] = uint32(i)
			kept += b2i(keys[i] <= kc)
		}
		for i := c + 1; i < n; i++ {
			dst[kept] = uint32(i)
			kept += b2i(keys[i] < kc)
		}
		return dst[:kept]
	}
	for i, key := range keys {
		dst[kept] = uint32(i)
		kept += b2i(key < kc || key == kc && (tie[i] < tie[c] || tie[i] == tie[c] && i <= c))
	}
	return dst[:kept]
}

// kth returns the position of the k-th smallest key (0 < k < len(keys))
// by (key, tie, position). Each round takes the digit below the highest
// bit where two remaining keys differ (above it all agree), counts them
// per digit value, and keeps only the bucket holding the k-th: those
// below it rank before it and leave k. A bucket of at most smallBucket,
// or of equal keys, is sorted.
func (s *Selector) kth(keys, tie []uint64, k int) int {
	n := len(keys)
	s.pos, s.remaining = slices.Grow(s.pos[:0], n)[:n], slices.Grow(s.remaining[:0], n)[:n]
	for i := range s.pos {
		s.pos[i] = uint32(i)
	}
	cur := keys
	for len(cur) > smallBucket {
		or, and := uint64(0), ^uint64(0)
		for _, key := range cur {
			or, and = or|key, and&key
		}
		if or == and {
			break
		}
		shift, h := uint(max(0, bits.Len64(or^and)-digitBits)), &s.hist
		clear(h[:])
		for _, key := range cur {
			h[key>>shift%(1<<digitBits)]++
		}
		d := and >> shift % (1 << digitBits)
		for ; int(h[d]) < k; d++ {
			k -= int(h[d])
		}
		j := 0
		for i, key := range cur { // in place: j <= i
			s.pos[j], s.remaining[j] = s.pos[i], key
			j += b2i(key>>shift%(1<<digitBits) == d)
		}
		cur = s.remaining[:j]
	}
	if tie == nil {
		tie = keys // (key, key, position) ranks as (key, position)
	}
	m := s.pos[:len(cur)]
	slices.SortFunc(m, func(a, b uint32) int {
		return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(tie[a], tie[b]), cmp.Compare(a, b))
	})
	return int(m[k-1])
}

// b2i is 1 for true: a flag set without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
