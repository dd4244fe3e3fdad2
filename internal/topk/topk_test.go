package topk

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushKeepsKNearest(t *testing.T) {
	l := New(3)
	for i, d := range []float64{5, 1, 4, 2, 8, 0.5} {
		l.Push(uint64(i), d)
	}
	items := l.Items()
	if len(items) != 3 {
		t.Fatalf("len = %d, want 3", len(items))
	}
	want := []float64{0.5, 1, 2}
	for i, it := range items {
		if it.Dist != want[i] {
			t.Errorf("item %d dist = %v, want %v", i, it.Dist, want[i])
		}
	}
}

func TestBound(t *testing.T) {
	l := New(2)
	if _, ok := l.Bound(); ok {
		t.Fatal("Bound ok on empty list")
	}
	l.Push(1, 3.0)
	l.Push(2, 1.0)
	b, ok := l.Bound()
	if !ok || b != 3.0 {
		t.Fatalf("Bound = %v,%v want 3,true", b, ok)
	}
}

func TestTieBreakDeterminism(t *testing.T) {
	l := New(4)
	l.Push(9, 1)
	l.Push(3, 1)
	l.Push(7, 1)
	l.Push(1, 1)
	want := []Item{{1, 1}, {3, 1}, {7, 1}, {9, 1}}
	if got := l.Items(); !slices.Equal(got, want) {
		t.Fatalf("items = %v, want %v", got, want)
	}
}

func TestReset(t *testing.T) {
	l := New(2)
	l.Push(1, 1)
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("Reset did not empty the list")
	}
	l.Push(2, 5)
	if got := l.Items(); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("after reset got %v", got)
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

// Property: the heap agrees with sorting the full stream.
func TestQuickAgainstSort(t *testing.T) {
	f := func(seed int64, kRaw uint8, nRaw uint8) bool {
		k := int(kRaw%20) + 1
		n := int(nRaw)
		rng := rand.New(rand.NewSource(seed))
		l := New(k)
		all := make([]Item, 0, n)
		for i := 0; i < n; i++ {
			d := rng.Float64() * 100
			l.Push(uint64(i), d)
			all = append(all, Item{uint64(i), d})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Dist != all[j].Dist {
				return all[i].Dist < all[j].Dist
			}
			return all[i].ID < all[j].ID
		})
		if len(all) > k {
			all = all[:k]
		}
		got := l.Items()
		if len(got) != len(all) {
			return false
		}
		for i := range all {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectK(t *testing.T) {
	items := []Item{{1, 4}, {2, 1}, {3, 3}, {4, 1}}
	got := SelectK(items, 2)
	Sort(got)
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 4 {
		t.Fatalf("SelectK = %v", got)
	}
	// k at or above the input length returns everything, untouched.
	for _, k := range []int{2, 10} {
		got = SelectK([]Item{{5, 2}, {6, 1}}, k)
		if len(got) != 2 || got[0].ID != 5 || got[1].ID != 6 {
			t.Fatalf("SelectK(k=%d) of 2 = %v", k, got)
		}
	}
	if got = SelectK([]Item{{5, 2}, {6, 1}}, 0); len(got) != 0 {
		t.Fatalf("SelectK(k=0) = %v", got)
	}
}

// selectKBySort is the reference SelectK replaced: sort everything by
// (Dist, ID), keep the first k.
func selectKBySort(items []Item, k int) []Item {
	sort.Slice(items, func(i, j int) bool { return itemLess(items[i], items[j]) })
	return items[:min(k, len(items))]
}

// The selection must keep exactly the set the full sort keeps, for every
// k, on inputs that stress the radix descent: random, heavy ties (in
// Dist and in the whole key), sorted, reversed, organ-pipe, all equal,
// keys in one exponent, and those beside one far outlier — the first
// digit then splits only the outlier off, and the k-th is found digits
// further down.
func TestSelectKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := map[string]func(n, i int) Item{
		"random":       func(n, i int) Item { return Item{uint64(i), rng.Float64()} },
		"ties":         func(n, i int) Item { return Item{uint64(i), float64(rng.Intn(4))} },
		"dupkeys":      func(n, i int) Item { return Item{uint64(rng.Intn(3)), float64(rng.Intn(3))} },
		"sorted":       func(n, i int) Item { return Item{uint64(i), float64(i)} },
		"reversed":     func(n, i int) Item { return Item{uint64(i), float64(n - i)} },
		"organpipe":    func(n, i int) Item { return Item{uint64(i), float64(min(i, n-i))} },
		"equal":        func(n, i int) Item { return Item{7, 1} },
		"one-exponent": func(n, i int) Item { return Item{uint64(i), 1 + rng.Float64()} },
		"outlier": func(n, i int) Item {
			if i == n/3 {
				return Item{uint64(i), 1e300}
			}
			return Item{uint64(i), 1 + rng.Float64()}
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 3, 16, 17, 18, 100, 1000, 4096} {
			items := make([]Item, n)
			for i := range items {
				items[i] = gen(n, i)
			}
			for _, k := range []int{1, 2, n / 4, n / 2, n - 1, n, n + 1} {
				if k < 1 {
					continue
				}
				want := selectKBySort(slices.Clone(items), k)
				got := SelectK(slices.Clone(items), k)
				Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d k=%d: selected set differs from the full sort's", name, n, k)
				}
			}
		}
	}
}

// encodeItems lays items out the way FuzzSelect reads them: per item the
// distance's float64 bits, little-endian, then one byte of id.
func encodeItems(items []Item) []byte {
	var b []byte
	for _, it := range items {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(it.Dist))
		b = append(b, byte(it.ID))
	}
	return b
}

// FuzzSelect checks Select against a full sort on fuzzer-built keys for
// every k: ranked by (distance, id) — the ids are one byte, so they tie
// heavily — and by distance alone, ties by position; and that SelectK
// returns the items at the positions the first keeps. Seeded with -0
// beside +0, keys in one exponent beside one far outlier (the descent
// past the first digit), all keys equal, and heavy ties at the k
// boundary.
func FuzzSelect(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	gen := func(n int, dist func(i int) float64, id func(i int) uint64) []Item {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{id(i), dist(i)}
		}
		return items
	}
	f.Add(encodeItems(gen(40, func(i int) float64 { return math.Copysign(0, float64(i%2*2-1)) * float64(i%3/2) }, func(i int) uint64 { return uint64(i % 5) })))
	f.Add(encodeItems(gen(200, func(i int) float64 {
		if i == 77 {
			return 1e300
		}
		return 1 + rng.Float64()
	}, func(i int) uint64 { return uint64(i) })))
	f.Add(encodeItems(gen(150, func(int) float64 { return 2.5 }, func(i int) uint64 { return uint64(rng.Intn(3)) })))
	f.Add(encodeItems(gen(300, func(int) float64 { return float64(rng.Intn(3)) }, func(i int) uint64 { return uint64(rng.Intn(256)) })))
	f.Add(encodeItems(gen(100, func(int) float64 { return -rng.ExpFloat64() }, func(i int) uint64 { return uint64(i) })))
	f.Fuzz(func(t *testing.T, data []byte) {
		var items []Item
		for ; len(data) >= 9 && len(items) < 300; data = data[9:] {
			if d := math.Float64frombits(binary.LittleEndian.Uint64(data)); !math.IsNaN(d) {
				items = append(items, Item{uint64(data[8]), d})
			}
		}
		keys, ids := make([]uint64, len(items)), make([]uint64, len(items))
		for i, it := range items {
			keys[i], ids[i] = orderKey(it.Dist), it.ID
		}
		// Each position's rank in a full stable sort by (distance, id) and
		// by distance alone: Select must keep the positions ranked below k.
		byItem := ranks(len(items), func(a, b int) int {
			return cmp.Or(cmp.Compare(items[a].Dist, items[b].Dist), cmp.Compare(items[a].ID, items[b].ID))
		})
		byDist := ranks(len(items), func(a, b int) int { return cmp.Compare(items[a].Dist, items[b].Dist) })
		var s Selector
		var got []uint32
		kept := make([]Item, len(items))
		for k := 0; k <= len(items)+1; k++ {
			n := min(k, len(items))
			if got = s.Select(got, keys, ids, k); !rankedBelow(got, byItem, n) {
				t.Fatalf("k=%d ties by id: Select kept %v, ranked %v", k, got, byItem)
			}
			// SelectK keeps the same positions' items, in position order.
			copy(kept, items)
			sel := SelectK(kept, k)
			if len(sel) != n {
				t.Fatalf("k=%d: SelectK kept %d items", k, len(sel))
			}
			for j, it := range sel {
				if it != items[got[j]] {
					t.Fatalf("k=%d: SelectK's item %d is %v, Select kept %v", k, j, it, items[got[j]])
				}
			}
			if got = s.Select(got, keys, nil, k); !rankedBelow(got, byDist, n) {
				t.Fatalf("k=%d ties by position: Select kept %v, ranked %v", k, got, byDist)
			}
		}
	})
}

// ranks returns each of n positions' place in a stable sort by cmp.
func ranks(n int, cmp func(a, b int) int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, cmp)
	rank := make([]int, n)
	for r, p := range order {
		rank[p] = r
	}
	return rank
}

// rankedBelow reports whether got is, ascending, exactly the positions
// whose rank is below n.
func rankedBelow(got []uint32, rank []int, n int) bool {
	if len(got) != n {
		return false
	}
	for i, p := range got {
		if rank[p] >= n || i > 0 && got[i-1] >= p {
			return false
		}
	}
	return true
}

// The filter's 4096 -> 1024 selection (the paper's default α -> γ), the
// shape the benchmark's topk.selectk_ns times.
func BenchmarkSelectK4096to1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items := make([]Item, 4096)
	for i := range items {
		items[i] = Item{ID: uint64(i), Dist: rng.Float64()}
	}
	scratch := make([]Item, len(items))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, items)
		if len(SelectK(scratch, 1024)) != 1024 {
			b.Fatal("short selection")
		}
	}
}

func BenchmarkPush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := New(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Push(uint64(i), rng.Float64())
	}
}

// The retained set must be independent of push order, including under
// distance ties at the k boundary — the property that lets callers
// reorder candidate streams (page-ordered refinement) without changing
// the answer.
func TestRetainedSetIsPushOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(6)
		n := k + rng.Intn(20)
		items := make([]Item, n)
		for i := range items {
			// Coarse distances force frequent ties.
			items[i] = Item{ID: uint64(i), Dist: float64(rng.Intn(4))}
		}
		forward := New(k)
		for _, it := range items {
			forward.Push(it.ID, it.Dist)
		}
		shuffled := New(k)
		perm := rng.Perm(n)
		for _, i := range perm {
			shuffled.Push(items[i].ID, items[i].Dist)
		}
		a, b := forward.Items(), shuffled.Items()
		if len(a) != len(b) {
			t.Fatalf("trial %d: lengths differ: %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: order-dependent retention: %v vs %v", trial, a, b)
			}
		}
	}
}

// ItemsInto must reuse dst and agree with Items.
func TestItemsInto(t *testing.T) {
	l := New(3)
	for i, d := range []float64{5, 1, 4, 2} {
		l.Push(uint64(i), d)
	}
	buf := make([]Item, 0, 8)
	got := l.ItemsInto(buf)
	want := l.Items()
	if len(got) != len(want) {
		t.Fatalf("ItemsInto len %d, Items len %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ItemsInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("ItemsInto did not reuse dst's backing array")
	}
}
