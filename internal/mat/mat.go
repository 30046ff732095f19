// Package mat holds the dense float64 kernels the models run on. The
// forwards, at training and at query time, run on three row kernels
// (rows.go): AddRowsScaled, a row vector times a matrix added into a
// row — the heads' layers, attention and readout sums, the aggregation
// terms of the backwards, and a layer's input gradient, dout·Wᵀ over the
// rows of Wᵀ; GatherRows, a weighted sum of named rows — a GNN layer's
// aggregation; and MulRowsReLU, a block of rows times a matrix through
// ReLU — a GNN layer's product by W. A training step adds two
// (training.go): AddOuter, the outer products behind a layer's weight
// gradient, and AdamStep, the optimizer's update. Storage is row major
// with explicit shapes, and a shape mismatch panics (shape errors are
// programming bugs, not runtime conditions).
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

// AddInPlace accumulates o into m.
func (m *Matrix) AddInPlace(o *Matrix) {
	m.shapeCheck(o, "add")
	for i, v := range o.Data {
		m.Data[i] += v
	}
}
