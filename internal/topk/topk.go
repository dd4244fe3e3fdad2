// Package topk implements bounded top-k selection over (id, distance)
// pairs. Every method in the paper — HD-Index's refinement step, the
// baselines' candidate verification, and ground-truth computation — ends
// with "keep the k nearest", so this lives in one shared package.
package topk

import "sort"

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

// New returns a List that retains the k nearest items pushed into it.
func New(k int) *List {
	if k < 1 {
		panic("topk: k must be >= 1")
	}
	return &List{k: k, items: make([]Item, 0, k)}
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
	sort.Slice(dst, func(i, j int) bool { return itemLess(dst[i], dst[j]) })
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

// SelectK sorts items ascending by distance and returns the first k
// (or all, if fewer). It is the non-streaming counterpart of List, used
// by the filter cascade where the candidate set is already materialised.
func SelectK(items []Item, k int) []Item {
	sort.Slice(items, func(i, j int) bool {
		if items[i].Dist != items[j].Dist {
			return items[i].Dist < items[j].Dist
		}
		return items[i].ID < items[j].ID
	})
	if len(items) > k {
		items = items[:k]
	}
	return items
}
