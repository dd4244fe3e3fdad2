//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

// Package f32view lends little-endian words out of a byte slice without
// a copy — the vector records (vecstore) as float32s and the RDB-tree
// leaf values (rdbtree) as uint16s: on little-endian CPUs an aligned run
// IS the []float32 or []uint16.
package f32view

import "unsafe"

// Viewable reports whether b can be reinterpreted in place as Ts: here
// only alignment can rule it out (page sizes are multiples of 4 in
// practice, but the formats do not forbid odd ones).
func Viewable[T float32 | uint16](b []byte) bool {
	var w T
	return len(b) >= int(unsafe.Sizeof(w)) && uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(w) == 0
}

// Cast reinterprets b (at least n words long, Viewable) as n Ts sharing
// b's storage.
func Cast[T float32 | uint16](b []byte, n int) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}
