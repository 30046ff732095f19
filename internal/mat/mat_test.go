package mat

import (
	"math/rand"
	"testing"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %v", m)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 || m.Data[5] != 5 {
		t.Fatalf("Set/At broken: %v", m)
	}
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatalf("Row does not alias storage")
	}
}

// dotT returns a·bᵀ as a layer's backward forms its input's gradient:
// each row of the result summed from +0 by AddRowsScaled over the rows of
// bᵀ, given explicitly.
func dotT(a, bt *Matrix) *Matrix {
	out := New(a.Rows, bt.Cols)
	for r := 0; r < a.Rows; r++ {
		AddRowsScaled(out.Row(r), a.Row(r), bt.Data, bt.Cols)
	}
	return out
}

// tMul returns aᵀ·b as a layer's backward forms its weight's gradient: by
// AddOuter from a zeroed destination.
func tMul(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	AddOuter(out.Data, a.Data, b.Data, a.Rows)
	return out
}

// TestMulKnown checks both training products, as the backwards form them
// on the row kernels, on one product worked by hand: [1 2 3; 4 5 6] times
// [7 8; 9 10; 11 12].
func TestMulKnown(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Matrix{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	want := []float64{58, 64, 139, 154}
	if got := dotT(a, b); !sameFloatBits(got.Data, want) {
		t.Fatalf("a·(bᵀ)ᵀ = %v; want %v", got.Data, want)
	}
	if got := tMul(transpose(a), b); !sameFloatBits(got.Data, want) {
		t.Fatalf("(aᵀ)ᵀ·b = %v; want %v", got.Data, want)
	}
}

// TestMulTAndTMulAgreeWithExplicitTranspose holds both training products
// — a·bᵀ on AddRowsScaled over bᵀ's rows, aᵀ·c on AddOuter — to the naive
// product on an explicitly transposed operand, on small random shapes
// whose operands are half zeros, as the ReLU-masked activations a backward
// passes are: AddOuter skips those zeros, and the result must not show it.
func TestMulTAndTMulAgreeWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	masked := func(rows, cols int) *Matrix {
		m := Randn(rows, cols, 1, rng)
		for i := range m.Data {
			if rng.Intn(2) == 0 {
				m.Data[i] = 0
			}
		}
		return m
	}
	for trial := 0; trial < 50; trial++ {
		a := masked(1+rng.Intn(6), 1+rng.Intn(6))
		b := masked(1+rng.Intn(6), a.Cols)
		if got, want := dotT(a, transpose(b)), naiveMul(a, transpose(b)); !equalValues(got.Data, want.Data) {
			t.Fatalf("trial %d: a·bᵀ = %v; want %v", trial, got.Data, want.Data)
		}
		c := masked(a.Rows, 1+rng.Intn(6))
		if got, want := tMul(a, c), naiveMul(transpose(a), c); !equalValues(got.Data, want.Data) {
			t.Fatalf("trial %d: aᵀ·c = %v; want %v", trial, got.Data, want.Data)
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{10, 20, 30, 40}}
	a.AddInPlace(b)
	a.AddInPlace(b)
	if want := []float64{21, 42, 63, 84}; !sameFloatBits(a.Data, want) {
		t.Fatalf("AddInPlace twice = %v; want %v", a.Data, want)
	}
	if want := []float64{10, 20, 30, 40}; !sameFloatBits(b.Data, want) {
		t.Fatalf("AddInPlace moved its operand to %v", b.Data)
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { New(2, 3).AddInPlace(New(3, 2)) },
		func() { New(-1, 2) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

// naiveMul is the reference triple loop the training products must match
// (same ascending-k accumulation per output element).
func naiveMul(m, o *Matrix) *Matrix {
	out := New(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < o.Cols; j++ {
			s := 0.0
			for k := 0; k < m.Cols; k++ {
				s += m.At(i, k) * o.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// transpose returns mᵀ.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// equalValues reports whether a and b hold equal values (a zero equals
// a zero of either sign).
func equalValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

func TestZeroAndClone(t *testing.T) {
	m := &Matrix{Rows: 1, Cols: 3, Data: []float64{1, 2, 3}}
	c := m.Clone()
	m.Zero()
	if !sameFloatBits(m.Data, []float64{0, 0, 0}) {
		t.Fatalf("Zero left %v", m.Data)
	}
	if !sameFloatBits(c.Data, []float64{1, 2, 3}) {
		t.Fatalf("Zero affected clone: %v", c.Data)
	}
}
