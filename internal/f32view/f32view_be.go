//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package f32view

// Viewable reports false: big-endian CPUs cannot alias little-endian
// bytes as native words, so callers decode.
func Viewable[T float32 | uint16](b []byte) bool { return false }

// Cast is never reached: Viewable is false on this platform.
func Cast[T float32 | uint16](b []byte, n int) []T {
	panic("f32view: zero-copy view is unavailable on this platform")
}
