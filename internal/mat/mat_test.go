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

// TestMulKnown checks both training kernels on one product worked by
// hand: [1 2 3; 4 5 6] times [7 8; 9 10; 11 12].
func TestMulKnown(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Matrix{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	want := []float64{58, 64, 139, 154}
	if got := MulTInto(New(2, 2), a, transpose(b)); !sameFloatBits(got.Data, want) {
		t.Fatalf("MulTInto = %v; want %v", got.Data, want)
	}
	if got := TMulInto(New(2, 2), transpose(a), b); !sameFloatBits(got.Data, want) {
		t.Fatalf("TMulInto = %v; want %v", got.Data, want)
	}
}

// TestMulTAndTMulAgreeWithExplicitTranspose holds both kernels to the
// naive product on an explicitly transposed operand, on small random
// shapes whose operands are half zeros, as the ReLU-masked activations
// linearBack passes are: TMulInto skips those zeros, and the result must
// not show it.
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
		if got, want := MulTInto(New(a.Rows, b.Rows), a, b), naiveMul(a, transpose(b)); !equalValues(got.Data, want.Data) {
			t.Fatalf("trial %d: MulTInto = %v; want %v", trial, got.Data, want.Data)
		}
		c := masked(a.Rows, 1+rng.Intn(6))
		if got, want := TMulInto(New(a.Cols, c.Cols), a, c), naiveMul(transpose(a), c); !equalValues(got.Data, want.Data) {
			t.Fatalf("trial %d: TMulInto = %v; want %v", trial, got.Data, want.Data)
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
		func() { MulTInto(New(2, 2), New(2, 3), New(2, 4)) }, // inner mismatch
		func() { TMulInto(New(3, 2), New(2, 3), New(4, 2)) }, // inner mismatch
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

// naiveMul is the reference triple loop the training kernels must match
// bit for bit (same ascending-k accumulation per output element).
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

// TestTiledKernelsBitIdenticalToNaive holds MulTInto and TMulInto to the
// naive triple loop bit for bit, each writing into a destination full of
// stale values that it must overwrite.
func TestTiledKernelsBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Shapes straddling MulTInto's tile of o's rows and leaving every tail
	// (0-3) after its blocks of four dot products.
	shapes := [][3]int{{1, 1, 1}, {3, 5, 4}, {5, 7, 6}, {4, 6, 7}, {17, 129, 31}, {130, 257, 129}, {96, 96, 96}, {120, 300, 160}}
	for _, s := range shapes {
		a := Randn(s[0], s[1], 1, rng)
		b := Randn(s[1], s[2], 1, rng)
		want := naiveMul(a, b)
		if got := MulTInto(Randn(s[0], s[2], 1, rng), a, transpose(b)); !sameFloatBits(got.Data, want.Data) {
			t.Fatalf("MulTInto %v not bit-identical to naive", s)
		}
		if got := TMulInto(Randn(s[0], s[2], 1, rng), transpose(a), b); !sameFloatBits(got.Data, want.Data) {
			t.Fatalf("TMulInto %v not bit-identical to naive", s)
		}
	}
}

// TestIntoVariantsMatchAndReuseDirtyDst writes both kernels into
// destinations full of stale values and holds the result to the naive
// product on fresh operands.
func TestIntoVariantsMatchAndReuseDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(9, 17, 1, rng)
	b := Randn(17, 13, 1, rng)
	bt := transpose(b)
	dst := Randn(9, 13, 1, rng) // dirty destination must be fully overwritten
	if got, want := MulTInto(dst, a, bt), naiveMul(a, b); got != dst || !sameFloatBits(got.Data, want.Data) {
		t.Fatalf("MulTInto into a dirty destination differs from the naive product")
	}
	c := Randn(9, 13, 1, rng)
	dst2 := Randn(17, 13, 1, rng)
	if got, want := TMulInto(dst2, a, c), naiveMul(transpose(a), c); got != dst2 || !sameFloatBits(got.Data, want.Data) {
		t.Fatalf("TMulInto into a dirty destination differs from the naive product")
	}
}

func TestIntoShapePanics(t *testing.T) {
	cases := []func(){
		func() { MulTInto(New(2, 2), New(2, 3), New(4, 3)) }, // dst cols wrong
		func() { TMulInto(New(2, 2), New(4, 3), New(4, 2)) }, // dst rows wrong
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
