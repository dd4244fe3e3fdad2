// Package topk implements bounded top-k selection over (id, distance)
// pairs. Every method in the paper — HD-Index's refinement step, the
// baselines' candidate verification, and ground-truth computation — ends
// with "keep the k nearest", so this lives in one shared package.
package topk

import (
	"math/bits"
	"slices"
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
		switch {
		case itemLess(x, y):
			return -1
		case itemLess(y, x):
			return 1
		}
		return 0
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

// IDs returns just the ids, nearest first.
func (l *List) IDs() []uint64 {
	items := l.Items()
	ids := make([]uint64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	return ids
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
// input is returned untouched, with no ordering work at all. It is the
// non-streaming counterpart of List, used by the filter cascade where
// the candidate set is already materialised and only membership in the
// k survivors matters: an introselect, O(len(items)) expected, against
// the O(n log n) of sorting everything to keep a quarter.
func SelectK(items []Item, k int) []Item {
	if k >= len(items) {
		return items
	}
	if k <= 0 {
		return items[:0]
	}
	// Invariant: lo < k <= hi, and the k smallest are items[:lo] plus the
	// k-lo smallest of items[lo:hi] — so k == hi ends it. Each round
	// splits [lo,hi) around a median-of-three pivot and keeps the side
	// the k-th item falls in; a short range — or one still long when the
	// depth budget runs out, which only an adversarial input manages —
	// is finished by sorting it.
	lo, hi := 0, len(items)
	for depth := 2 * bits.Len(uint(len(items))); k < hi && hi-lo > 16 && depth > 0; depth-- {
		split := lo + partition(items[lo:hi])
		if k <= split {
			hi = split
		} else {
			lo = split
		}
	}
	if k < hi {
		Sort(items[lo:hi])
	}
	return items[:k]
}

// partition reorders a (len >= 3) around its median-of-three pivot and
// returns a split point 0 < s < len(a) with every item of a[:s] ordering
// at or before every item of a[s:] (Hoare's scheme: equal items stop
// both scans, so runs of duplicates split evenly).
func partition(a []Item) int {
	mid, last := len(a)/2, len(a)-1
	if itemLess(a[mid], a[0]) {
		a[0], a[mid] = a[mid], a[0]
	}
	if itemLess(a[last], a[mid]) {
		a[mid], a[last] = a[last], a[mid]
		if itemLess(a[mid], a[0]) {
			a[0], a[mid] = a[mid], a[0]
		}
	}
	// a[0] <= pivot <= a[last] are in place and bound the two scans.
	pivot := a[mid]
	i, j := 0, last
	for {
		for i++; itemLess(a[i], pivot); i++ {
		}
		for j--; itemLess(pivot, a[j]); j-- {
		}
		if i >= j {
			return j + 1
		}
		a[i], a[j] = a[j], a[i]
	}
}
