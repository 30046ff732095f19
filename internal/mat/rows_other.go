//go:build !amd64

package mat

// hasAVX is false off amd64: the row kernels run their Go bodies.
func hasAVX() bool { return false }

// hasVPOPCNTQ is false off amd64.
func hasVPOPCNTQ() bool { return false }

// The vector bodies are never called off amd64 (vector stays false).

func addRowsScaledAVX(dst, x, w *float64, cols, rows, stride int) {
	panic("mat: no vector body on this architecture")
}

func gatherRowsAVX(dst *float64, terms *Term, n int, src *float64, cols, stride int) {
	panic("mat: no vector body on this architecture")
}

func mulRowsReLUAVX(out, x *float64, rows, din int, w *float64, cols, stride int) {
	panic("mat: no vector body on this architecture")
}

func addOuterAVX(dst, x, y *float64, rows, m, cols, stride int) {
	panic("mat: no vector body on this architecture")
}

func adamStepAVX(w, m, v, grad *float64, n int, a *Adam) {
	panic("mat: no vector body on this architecture")
}
