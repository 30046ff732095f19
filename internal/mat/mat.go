// Package mat implements the small dense float64 matrix kernels that back
// the library's neural network substrate. It is deliberately minimal: row
// major storage, no views, explicit shapes, and panics on shape mismatch
// (shape errors are programming bugs, not runtime conditions).
package mat

import (
	"fmt"
	"math"
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

// FromSlice builds a matrix from a row-major slice, which is copied.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: %d values for %dx%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
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

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// SameShapeOrPanic panics when m and o have different dimensions.
func (m *Matrix) SameShapeOrPanic(o *Matrix) { m.shapeCheck(o, "shape") }

func (m *Matrix) shapeCheck(o *Matrix, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Product-kernel tiles. They keep a destination-row segment and the
// matching segment of the streamed operand rows L1-resident; every tiling
// loop walks the inner (k) dimension in ascending order for each output
// element, so tiled results are bit-identical to the naive triple loop.
const (
	tileJ = 128
	tileK = 256
)

// Mul returns the matrix product m * o.
func Mul(m, o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("mat: mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	return MulInto(New(m.Rows, o.Cols), m, o)
}

// MulInto computes m * o into dst (which must be m.Rows x o.Cols and
// must not alias m or o) and returns dst. Reusing a destination avoids
// the per-call allocation of Mul on hot paths.
func MulInto(dst, m, o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("mat: mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != o.Cols {
		panic(fmt.Sprintf("mat: mul into %dx%d destination for %dx%d product", dst.Rows, dst.Cols, m.Rows, o.Cols))
	}
	// Tiled over the inner dimension and the destination columns. Dense
	// inputs take no per-element branch (zero-skip lives only in the
	// sparse-aware TMul).
	dst.Zero()
	for k0 := 0; k0 < m.Cols; k0 += tileK {
		k1 := k0 + tileK
		if k1 > m.Cols {
			k1 = m.Cols
		}
		for j0 := 0; j0 < o.Cols; j0 += tileJ {
			j1 := j0 + tileJ
			if j1 > o.Cols {
				j1 = o.Cols
			}
			for i := 0; i < m.Rows; i++ {
				mrow := m.Row(i)
				drow := dst.Row(i)[j0:j1]
				k := k0
				// Four rows of o per pass over drow: every drow[j] still
				// receives its terms one at a time in ascending k, so the
				// blocking changes no float, only how often drow is loaded
				// and stored.
				for ; k+4 <= k1; k += 4 {
					a0, a1, a2, a3 := mrow[k], mrow[k+1], mrow[k+2], mrow[k+3]
					b0, b1 := o.Row(k)[j0:j1], o.Row(k + 1)[j0:j1]
					b2, b3 := o.Row(k + 2)[j0:j1], o.Row(k + 3)[j0:j1]
					for j, d := range drow {
						d += a0 * b0[j]
						d += a1 * b1[j]
						d += a2 * b2[j]
						d += a3 * b3[j]
						drow[j] = d
					}
				}
				for ; k < k1; k++ {
					a := mrow[k]
					brow := o.Row(k)[j0:j1]
					for j, b := range brow {
						drow[j] += a * b
					}
				}
			}
		}
	}
	return dst
}

// MulT returns m * oᵀ.
func MulT(m, o *Matrix) *Matrix {
	if m.Cols != o.Cols {
		panic(fmt.Sprintf("mat: mulT shape mismatch %dx%d * (%dx%d)ᵀ", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	return MulTInto(New(m.Rows, o.Rows), m, o)
}

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

// TMul returns mᵀ * o.
func TMul(m, o *Matrix) *Matrix {
	if m.Rows != o.Rows {
		panic(fmt.Sprintf("mat: tmul shape mismatch (%dx%d)ᵀ * %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	return TMulInto(New(m.Cols, o.Cols), m, o)
}

// TMulInto computes mᵀ * o into dst (which must be m.Cols x o.Cols and
// must not alias m or o) and returns dst. It keeps the zero-skip: its
// left operand is routinely sparse (one-hot GNN inputs, ReLU-masked
// activations and their gradients), where skipping zero rows saves far
// more than the branch costs.
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

// Add returns m + o.
func Add(m, o *Matrix) *Matrix {
	m.shapeCheck(o, "add")
	out := m.Clone()
	for i, v := range o.Data {
		out.Data[i] += v
	}
	return out
}

// AddInPlace accumulates o into m.
func (m *Matrix) AddInPlace(o *Matrix) {
	m.shapeCheck(o, "add")
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// AddScaledInPlace accumulates s*o into m.
func (m *Matrix) AddScaledInPlace(o *Matrix, s float64) {
	m.shapeCheck(o, "addscaled")
	for i, v := range o.Data {
		m.Data[i] += s * v
	}
}

// Sub returns m - o.
func Sub(m, o *Matrix) *Matrix {
	m.shapeCheck(o, "sub")
	out := m.Clone()
	for i, v := range o.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns s * m.
func Scale(m *Matrix, s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Hadamard returns the elementwise product m ⊙ o.
func Hadamard(m, o *Matrix) *Matrix {
	m.shapeCheck(o, "hadamard")
	out := m.Clone()
	for i, v := range o.Data {
		out.Data[i] *= v
	}
	return out
}

// Transpose returns mᵀ.
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MaxAbsDiff returns max |m - o| elementwise.
func MaxAbsDiff(m, o *Matrix) float64 {
	m.shapeCheck(o, "maxabsdiff")
	max := 0.0
	for i, v := range o.Data {
		if d := math.Abs(m.Data[i] - v); d > max {
			max = d
		}
	}
	return max
}

// Norm2 returns the Frobenius norm.
func (m *Matrix) Norm2() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)%v", m.Rows, m.Cols, m.Data)
}
