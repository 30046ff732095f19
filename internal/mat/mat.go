// Package mat holds the dense float64 kernels the models run on. The
// forwards, at training and at query time, run on three row kernels
// (rows.go): AddRowsScaled, a row vector times a matrix added into a
// row — the heads' layers, attention and readout sums, and the
// aggregation terms of the backwards; GatherRows, a weighted sum of named
// rows — a GNN layer's aggregation; and MulRowsReLU, a block of rows
// times a matrix through ReLU — a GNN layer's product by W. The products
// of a layer's backward by its weight matrix run on MulTInto and
// TMulInto. Storage is row major with explicit shapes, and a shape
// mismatch panics (shape errors are programming bugs, not runtime
// conditions).
package mat

import (
	"fmt"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Randn fills a new matrix with N(0, std) entries from rng.
func Randn(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

func (m *Matrix) shapeCheck(o *Matrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// tileJ is how many of o's rows MulTInto keeps cached across m's rows.
// Each output element is still one dot product summed over ascending k,
// so the tiling changes no float.
const tileJ = 128

// MulTInto computes m * oᵀ into dst (which must be m.Rows x o.Rows and
// must not alias m or o) and returns dst.
func MulTInto(dst, m, o *Matrix) *Matrix {
	if m.Cols != o.Cols {
		panic(fmt.Sprintf("mat: mulT shape mismatch %dx%d * (%dx%d)ᵀ", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != o.Rows {
		panic(fmt.Sprintf("mat: mulT into %dx%d destination for %dx%d product", dst.Rows, dst.Cols, m.Rows, o.Rows))
	}
	// Dot products, tiled over o's rows so a tile of them stays cached
	// across m's rows.
	for j0 := 0; j0 < o.Rows; j0 += tileJ {
		j1 := j0 + tileJ
		if j1 > o.Rows {
			j1 = o.Rows
		}
		for i := 0; i < m.Rows; i++ {
			mrow := m.Row(i)
			drow := dst.Row(i)
			j := j0
			// Four dot products at a time: each is still summed from zero
			// over ascending k, but the four chains of dependent additions
			// overlap instead of waiting on one another.
			for ; j+4 <= j1; j += 4 {
				o0, o1, o2, o3 := o.Row(j), o.Row(j+1), o.Row(j+2), o.Row(j+3)
				s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
				for k, a := range mrow {
					s0 += a * o0[k]
					s1 += a * o1[k]
					s2 += a * o2[k]
					s3 += a * o3[k]
				}
				drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
			}
			for ; j < j1; j++ {
				orow := o.Row(j)
				s := 0.0
				for k, a := range mrow {
					s += a * orow[k]
				}
				drow[j] = s
			}
		}
	}
	return dst
}

// TMulInto computes mᵀ * o into dst (which must be m.Cols x o.Cols and
// must not alias m or o) and returns dst. It skips zero entries of m:
// its left operand is routinely sparse (one-hot GNN inputs and
// ReLU-masked activations), where skipping zero rows saves far more than
// the branch costs.
func TMulInto(dst, m, o *Matrix) *Matrix {
	if m.Rows != o.Rows {
		panic(fmt.Sprintf("mat: tmul shape mismatch (%dx%d)ᵀ * %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	if dst.Rows != m.Cols || dst.Cols != o.Cols {
		panic(fmt.Sprintf("mat: tmul into %dx%d destination for %dx%d product", dst.Rows, dst.Cols, m.Cols, o.Cols))
	}
	// k stays the outer ascending loop, so per-element accumulation order
	// matches the naive kernel exactly.
	dst.Zero()
	for k := 0; k < m.Rows; k++ {
		okrow := o.Row(k)
		for i, a := range m.Row(k) {
			if a == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, b := range okrow {
				drow[j] += a * b
			}
		}
	}
	return dst
}

// AddInPlace accumulates o into m.
func (m *Matrix) AddInPlace(o *Matrix) {
	m.shapeCheck(o, "add")
	for i, v := range o.Data {
		m.Data[i] += v
	}
}
