package lanstore

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// canAlias reports whether fixed-width sections can be reinterpreted in
// place: the wire format is little-endian 64-bit, so aliasing needs a
// little-endian platform with 64-bit ints. Everywhere else the decode
// helpers fall back to copying.
var canAlias = bits.UintSize == 64 && isLittleEndian()

func isLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

func aligned8(b []byte) bool {
	return len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

// aliasInts reinterprets b as []int (wire: little-endian int64) without
// copying when the platform allows, else decodes a copy.
func aliasInts(b []byte) []int {
	if len(b) == 0 {
		return nil
	}
	if canAlias && aligned8(b) {
		return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

// aliasUint64s is aliasInts for []uint64.
func aliasUint64s(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if canAlias && aligned8(b) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// aliasFloat64s reinterprets b as []float64 without copying, or returns
// nil when the platform cannot alias (callers then decode into scratch).
func aliasFloat64s(b []byte) []float64 {
	if !canAlias || !aligned8(b) {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}
