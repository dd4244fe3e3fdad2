//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package f32view

// Viewable reports false: big-endian CPUs cannot alias the
// little-endian bytes as native float32s, so callers decode.
func Viewable(b []byte) bool { return false }

// Cast is never reached: Viewable is false on this platform.
func Cast(b []byte, n int) []float32 {
	panic("f32view: zero-copy float32 view is unavailable on this platform")
}
