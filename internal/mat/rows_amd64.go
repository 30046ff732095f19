package mat

// hasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches (XCR0 bits 1 and 2).
func hasAVX() bool {
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// addRowsScaledAVX is AddRowsScaled's vector body over the first cols
// columns (a positive multiple of 4) of rows > 0 rows; the wrapper has
// checked the lengths.
//
//go:noescape
func addRowsScaledAVX(dst, x, w *float64, cols, rows, stride int)
