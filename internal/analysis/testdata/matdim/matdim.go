// Package fixture exercises the matdim analyzer: dimension mistakes that
// local constant propagation can prove must be flagged, while anything
// involving an unknown or reassigned shape must not.
package fixture

import "github.com/lansearch/lan/internal/mat"

func badFromSlice() *mat.Matrix {
	return mat.FromSlice(2, 2, []float64{1, 2, 3}) // want "3 values for a 2x2 matrix"
}

func okFromSlice() *mat.Matrix {
	return mat.FromSlice(2, 2, []float64{1, 2, 3, 4})
}

func negativeShape() *mat.Matrix {
	return mat.New(-1, 5) // want "negative dimension"
}

func badMul() *mat.Matrix {
	a := mat.New(2, 3)
	b := mat.New(4, 5)
	return mat.Mul(a, b) // want "inner dimensions 3 and 4"
}

func okMulChain() *mat.Matrix {
	a := mat.New(2, 3)
	b := mat.New(3, 4)
	c := mat.Mul(a, b) // 2x4
	return mat.MulT(c, mat.New(7, 4))
}

func badMulT() *mat.Matrix {
	a := mat.New(2, 3)
	return mat.MulT(a, mat.New(5, 4)) // want "inner dimensions 3 and 4"
}

func badTMul() *mat.Matrix {
	a := mat.New(2, 3)
	return mat.TMul(a, mat.New(5, 4)) // want "inner dimensions 2 and 5"
}

func badAddViaTranspose() *mat.Matrix {
	a := mat.New(2, 3)
	b := mat.Transpose(a) // 3x2
	return mat.Add(a, b)  // want "elementwise mat op on 2x3 and 3x2"
}

func unknownDimsNotFlagged(n int) *mat.Matrix {
	a := mat.New(n, 3)
	b := mat.New(3, 5)
	return mat.Mul(a, b)
}

func reassignedNotTracked(wide bool) *mat.Matrix {
	a := mat.New(2, 3)
	if wide {
		a = mat.New(2, 7)
	}
	b := mat.New(3, 4)
	// a's shape is no longer provable after the conditional reassignment,
	// so the (possibly fine, possibly not) product is not reported.
	return mat.Mul(a, b)
}

func fieldWriteNotTracked() *mat.Matrix {
	a := mat.New(2, 3)
	a.Rows = 3
	return mat.Mul(a, mat.New(4, 5))
}

func cloneAndScalePropagate() *mat.Matrix {
	a := mat.New(2, 3)
	b := mat.Scale(a.Clone(), 2)
	return mat.Sub(b, mat.New(4, 4)) // want "elementwise mat op on 2x3 and 4x4"
}

func badMulInto() *mat.Matrix {
	dst := mat.New(2, 5)
	a := mat.New(2, 3)
	return mat.MulInto(dst, a, mat.New(4, 5)) // want "inner dimensions 3 and 4"
}

func badMulIntoDst() *mat.Matrix {
	dst := mat.New(2, 4)
	a := mat.New(2, 3)
	return mat.MulInto(dst, a, mat.New(3, 5)) // want "destination 2x4 for a 2x5 product"
}

func badMulTInto() *mat.Matrix {
	dst := mat.New(2, 5)
	a := mat.New(2, 3)
	return mat.MulTInto(dst, a, mat.New(5, 4)) // want "inner dimensions 3 and 4"
}

func badTMulIntoDst() *mat.Matrix {
	dst := mat.New(3, 3)
	a := mat.New(2, 3)
	return mat.TMulInto(dst, a, mat.New(2, 4)) // want "destination 3x3 for a 3x4 product"
}

func unknownIntoNotFlagged(dst *mat.Matrix) *mat.Matrix {
	a := mat.New(2, 3)
	// dst's shape is unknown, so only operand conformance is checkable —
	// and 3 == 3 conforms.
	return mat.MulInto(dst, a, mat.New(3, 5))
}

func suppressed() *mat.Matrix {
	a := mat.New(2, 3)
	b := mat.New(4, 5)
	return mat.Mul(a, b) //lint:allow matdim fixture for the suppression path
}
