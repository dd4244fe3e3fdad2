// Package radix sorts permutations of fixed-width byte keys held in a
// flat arena — the shape the HD-Index build path produces: one
// n×w allocation of stored Hilbert keys per RDB-tree, written in
// object-id order, never moved afterwards.
//
// Sorting a []uint32 permutation instead of records keeps the moved
// element 4 bytes wide regardless of key width, and an MSD radix sort
// over the fixed-width big-endian keys replaces the comparison sort's
// O(n log n) key comparisons (each a byte-wise loop through up to
// w bytes) with one counting pass per distinguishing byte. Both
// properties matter at million-scale bulk load, where the sort is the
// serial phase of every tree build.
package radix

import "sort"

// msdCutoff is the bucket size below which the MSD recursion hands off
// to a binary-insertion sort on the remaining key suffix. Counting 256
// buckets costs more than it saves on tiny ranges.
const msdCutoff = 48

// Sort reorders perm so that the keys it indexes are in non-decreasing
// big-endian order. keys is a flat arena of len(perm) rows of width
// bytes each: row r occupies keys[r*width : (r+1)*width], and perm holds
// row numbers. The sort is stable: rows with equal keys keep their
// relative perm order, so an identity input permutation yields
// deterministic id-ascending tie order — what the build determinism
// tests pin down.
//
// width == 0 (every key equal) and len(perm) < 2 are no-ops. Sort
// allocates one len(perm) scratch slice; use SortWithScratch to reuse
// one across calls.
func Sort(keys []byte, width int, perm []uint32) {
	SortWithScratch(keys, width, perm, nil)
}

// SortWithScratch is Sort with a caller-provided scratch buffer; it is
// grown if cap(scratch) < len(perm). Passing the same buffer across the
// τ per-tree sorts of a build leaves one allocation total.
func SortWithScratch(keys []byte, width int, perm []uint32, scratch []uint32) {
	if len(perm) < 2 || width == 0 {
		return
	}
	if cap(scratch) < len(perm) {
		scratch = make([]uint32, len(perm))
	}
	scratch = scratch[:len(perm)]
	msdSort(keys, width, perm, scratch, 0)
}

// msdSort sorts perm by key bytes from depth onward. scratch has the
// same length as perm.
func msdSort(keys []byte, width int, perm, scratch []uint32, depth int) {
	for {
		if len(perm) <= msdCutoff {
			insertionSort(keys, width, perm, depth)
			return
		}
		if depth == width {
			return // all bytes consumed: keys equal, stability keeps order
		}
		// Stable counting sort on byte `depth`.
		var count [256]int
		for _, r := range perm {
			count[keys[int(r)*width+depth]]++
		}
		// Tail-call shortcut: every key shares this byte.
		if count[keys[int(perm[0])*width+depth]] == len(perm) {
			depth++
			continue
		}
		var offs [256]int
		sum := 0
		for b := 0; b < 256; b++ {
			offs[b] = sum
			sum += count[b]
		}
		pos := offs
		for _, r := range perm {
			b := keys[int(r)*width+depth]
			scratch[pos[b]] = r
			pos[b]++
		}
		copy(perm, scratch)
		// Recurse into each bucket on the next byte. The largest bucket
		// is handled by the loop itself, bounding recursion depth at
		// O(width · log₂₅₆ n) in the worst case.
		if depth+1 == width {
			return
		}
		max := 0
		for b := 0; b < 256; b++ {
			if count[b] > count[max] {
				max = b
			}
		}
		for b := 0; b < 256; b++ {
			if b != max && count[b] > 1 {
				msdSort(keys, width, perm[offs[b]:offs[b]+count[b]], scratch[offs[b]:offs[b]+count[b]], depth+1)
			}
		}
		if count[max] < 2 {
			return
		}
		perm = perm[offs[max] : offs[max]+count[max]]
		scratch = scratch[offs[max] : offs[max]+count[max]]
		depth++
	}
}

// insertionSort sorts perm by the key suffix from depth onward, stable:
// an element moves left only past strictly greater keys, so equal keys
// keep their input order.
func insertionSort(keys []byte, width int, perm []uint32, depth int) {
	suffix := func(r uint32) []byte {
		off := int(r) * width
		return keys[off+depth : off+width]
	}
	for i := 1; i < len(perm); i++ {
		r := perm[i]
		k := suffix(r)
		// Binary search for the first position with a strictly greater
		// suffix; shifting the tail right keeps the sort stable.
		j := sort.Search(i, func(p int) bool {
			return compare(suffix(perm[p]), k) > 0
		})
		copy(perm[j+1:i+1], perm[j:i])
		perm[j] = r
	}
}

// compare is bytes.Compare specialised to equal-length slices (the only
// shape the arena produces); inlined here to keep the hot loop free of
// the generic length handling.
func compare(a, b []byte) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}
