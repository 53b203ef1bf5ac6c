//go:build 386 || amd64 || amd64p32 || alpha || arm || arm64 || loong64 || mipsle || mips64le || mips64p32le || nios2 || ppc64le || riscv || riscv64 || sh || wasm

package hlog

import "unsafe"

// frameBytes is the byte view of frame words: what the device holds for them,
// the device format being little-endian like every port this file builds on
// (there is no copying fallback: a big-endian build does not compile).
func frameBytes(words []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)
}
