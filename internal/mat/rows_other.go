//go:build !amd64

package mat

// hasAVX is false off amd64: AddRowsScaled runs its Go body.
func hasAVX() bool { return false }

// addRowsScaledAVX is never called off amd64 (vector stays false).
func addRowsScaledAVX(dst, x, w *float64, cols, rows, stride int) {
	panic("mat: no vector body on this architecture")
}
