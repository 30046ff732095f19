package mat

import (
	"fmt"
	"math"
)

// The kernels of a training step's backward and update: AddOuter for a
// layer's weight gradient, AdamStep for the optimizer.

// AddOuter adds to dst the outer products of the rows of x and y, one row
// pair after the other: x is rows × m, y is rows × n and dst is m × n, all
// row major, and for k ascending, every i whose x[k·m+i] is not ±0 (a NaN
// is kept) gets dst[i·n+j] += x[k·m+i]·y[k·n+j] for every j. With rows 1
// it is a rank-1 update; with more it is xᵀ·y added into dst, each element
// summing its terms over ascending k, so from a zeroed dst it is the
// product xᵀ·y with its zero entries of x skipped (which changes no finite
// sum from a +0 start). It keeps AddRowsScaled's rules — the same bits on
// the vector body and the Go one, four columns per instruction, no fused
// multiply-add — and allocates nothing.
func AddOuter(dst, x, y []float64, rows int) {
	if rows <= 0 || len(x)%rows != 0 || len(y)%rows != 0 || len(dst) != len(x)/rows*(len(y)/rows) {
		panic(fmt.Sprintf("mat: outer products of %d rows from %d and %d values into %d", rows, len(x), len(y), len(dst)))
	}
	m, n := len(x)/rows, len(y)/rows
	if m == 0 || n == 0 {
		return
	}
	c := 0
	if vector && n >= 4 {
		c = n &^ 3
		addOuterAVX(&dst[0], &x[0], &y[0], rows, m, c, n)
		if c == n {
			return
		}
	}
	addOuterGo(dst[c:], x, y[c:], rows, m, n-c, n)
}

// addOuterGo is AddOuter's portable body and the oracle the vector body is
// held to, over n columns at stride: row i of dst is dst[i·stride:][:n],
// row k of y is y[k·stride:][:n].
func addOuterGo(dst, x, y []float64, rows, m, n, stride int) {
	for k := 0; k < rows; k++ {
		yk := y[k*stride:][:n]
		for i, a := range x[k*m:][:m] {
			if a == 0 {
				continue
			}
			d := dst[i*stride:][:n]
			for j, b := range yk {
				d[j] += float64(a * b) // never fused, on any architecture
			}
		}
	}
}

// minNormal is the smallest normal float64, 2^-1022.
const minNormal = 0x1p-1022

// Adam holds the coefficients of one Adam step: the moments' decay rates
// Beta1 and Beta2 and their complements C1 = 1 − Beta1 and C2 = 1 −
// Beta2, the bias corrections BC1 and BC2 of the step, the learning rate
// and ε.
type Adam struct {
	Beta1, Beta2, C1, C2, BC1, BC2, LR, Eps float64
}

// AdamStep applies one Adam update to the weights w, element by element,
// from the gradient g and the moments m and v (all of one length):
//
//	m ← Beta1·m + C1·g,  v ← Beta2·v + (C2·g)·g,
//	w ← w − LR·((m/BC1) / (√(v/BC2) + Eps)),
//
// each operation rounded on its own, in that order; then an m below the
// smallest normal float64 in magnitude, or a v below it, becomes +0 (a
// moment left to decay under zero gradients turns subnormal, where x86
// arithmetic is ~100x slower). Every operation is one correctly rounded
// IEEE operation — multiply, add, subtract, divide, square root — so the
// vector body (four elements per instruction, never a fused
// multiply-add) gives the Go body's bits. It allocates nothing.
func AdamStep(w, m, v, g []float64, a *Adam) {
	n := len(g)
	if len(w) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("mat: Adam step over %d weights, %d and %d moments and %d gradients", len(w), len(m), len(v), n))
	}
	c := 0
	if vector && n >= 4 {
		c = n &^ 3
		adamStepAVX(&w[0], &m[0], &v[0], &g[0], c, a)
		if c == n {
			return
		}
	}
	adamStepGo(w[c:], m[c:], v[c:], g[c:], a)
}

// adamStepGo is AdamStep's portable body and the oracle the vector body is
// held to.
func adamStepGo(w, m, v, g []float64, a *Adam) {
	for i, gi := range g {
		mi := a.Beta1*m[i] + a.C1*gi
		vi := a.Beta2*v[i] + a.C2*gi*gi
		w[i] -= a.LR * ((mi / a.BC1) / (math.Sqrt(vi/a.BC2) + a.Eps))
		if math.Abs(mi) < minNormal {
			mi = 0
		}
		if vi < minNormal {
			vi = 0
		}
		m[i], v[i] = mi, vi
	}
}
