//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

// Package f32view lends little-endian float32 bytes — the vector records
// (vecstore) and RDB-tree leaf values (rdbtree) — out as a []float32
// without a copy: on little-endian CPUs an aligned run IS the []float32.
package f32view

import "unsafe"

// Viewable reports whether b can be reinterpreted in place as float32s:
// here only alignment can rule it out (page sizes are multiples of 4 in
// practice, but the formats do not forbid odd ones).
func Viewable(b []byte) bool {
	return len(b) >= 4 && uintptr(unsafe.Pointer(&b[0]))%4 == 0
}

// Cast reinterprets b (length >= 4*n, Viewable) as n float32s sharing
// b's storage.
func Cast(b []byte, n int) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
}
