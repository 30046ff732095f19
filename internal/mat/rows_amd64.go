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

// hasVPOPCNTQ reports whether the CPU has AVX2, AVX-512 F and VL and
// VPOPCNTDQ (CPUID leaf 7), and the OS saves the YMM, opmask and ZMM
// registers across context switches (XCR0 bits 1, 2 and 5 to 7).
func hasVPOPCNTQ() bool {
	if !hasAVX() {
		return false
	}
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, ecx, _ := cpuid(7, 0)
	const avx2, avx512f, avx512vl = 1 << 5, 1 << 16, 1 << 31
	const vpopcntdq = 1 << 14
	if ebx&(avx2|avx512f|avx512vl) != avx2|avx512f|avx512vl || ecx&vpopcntdq == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&0xe6 == 0xe6
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// addRowsScaledAVX is AddRowsScaled's vector body over the first cols
// columns (a positive multiple of 4) of rows > 0 rows; the wrapper has
// checked the lengths.
//
//go:noescape
func addRowsScaledAVX(dst, x, w *float64, cols, rows, stride int)

// gatherRowsAVX is GatherRows' vector body over the first cols columns (a
// positive multiple of 4) of n > 0 terms, row r of src at r·stride; the
// wrapper has checked every term's row.
//
//go:noescape
func gatherRowsAVX(dst *float64, terms *Term, n int, src *float64, cols, stride int)

// mulRowsReLUAVX is MulRowsReLU's vector body over the first cols columns
// (a positive multiple of 4) of rows > 0 rows of din > 0 entries, out's
// and w's rows stride wide; the wrapper has checked the lengths.
//
//go:noescape
func mulRowsReLUAVX(out, x *float64, rows, din int, w *float64, cols, stride int)

// addOuterAVX is AddOuter's vector body over the first cols columns (a
// positive multiple of 4) of rows > 0 row pairs, x's rows m > 0 wide, dst's
// and y's rows stride wide; the wrapper has checked the lengths.
//
//go:noescape
func addOuterAVX(dst, x, y *float64, rows, m, cols, stride int)

// adamStepAVX is AdamStep's vector body over the first n elements (a
// positive multiple of 4); the wrapper has checked the lengths.
//
//go:noescape
func adamStepAVX(w, m, v, grad *float64, n int, a *Adam)
