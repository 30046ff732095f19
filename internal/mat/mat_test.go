package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestFromSliceCopies(t *testing.T) {
	src := []float64{1, 2, 3, 4}
	m := FromSlice(2, 2, src)
	src[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatalf("FromSlice aliased input")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if MaxAbsDiff(got, want) > 1e-12 {
		t.Fatalf("Mul = %v; want %v", got, want)
	}
}

func TestMulTAndTMulAgreeWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := Randn(2+rng.Intn(5), 2+rng.Intn(5), 1, rng)
		b := Randn(2+rng.Intn(5), a.Cols, 1, rng)
		if MaxAbsDiff(MulT(a, b), Mul(a, Transpose(b))) > 1e-12 {
			t.Fatalf("MulT mismatch")
		}
		c := Randn(a.Rows, 2+rng.Intn(5), 1, rng)
		if MaxAbsDiff(TMul(a, c), Mul(Transpose(a), c)) > 1e-12 {
			t.Fatalf("TMul mismatch")
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})
	if MaxAbsDiff(Add(a, b), FromSlice(2, 2, []float64{11, 22, 33, 44})) != 0 {
		t.Fatalf("Add wrong")
	}
	if MaxAbsDiff(Sub(b, a), FromSlice(2, 2, []float64{9, 18, 27, 36})) != 0 {
		t.Fatalf("Sub wrong")
	}
	if MaxAbsDiff(Scale(a, 2), FromSlice(2, 2, []float64{2, 4, 6, 8})) != 0 {
		t.Fatalf("Scale wrong")
	}
	if MaxAbsDiff(Hadamard(a, b), FromSlice(2, 2, []float64{10, 40, 90, 160})) != 0 {
		t.Fatalf("Hadamard wrong")
	}
	c := a.Clone()
	c.AddInPlace(b)
	if MaxAbsDiff(c, Add(a, b)) != 0 {
		t.Fatalf("AddInPlace wrong")
	}
	d := a.Clone()
	d.AddScaledInPlace(b, 0.5)
	if MaxAbsDiff(d, FromSlice(2, 2, []float64{6, 12, 18, 24})) != 0 {
		t.Fatalf("AddScaledInPlace wrong")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Randn(1+rng.Intn(6), 1+rng.Intn(6), 1, rng)
		return MaxAbsDiff(Transpose(Transpose(m)), m) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2(t *testing.T) {
	m := FromSlice(1, 2, []float64{3, 4})
	if math.Abs(m.Norm2()-5) > 1e-12 {
		t.Fatalf("Norm2 = %v; want 5", m.Norm2())
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { Mul(New(2, 3), New(2, 3)) },
		func() { Add(New(2, 3), New(3, 2)) },
		func() { FromSlice(2, 2, []float64{1}) },
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

// naiveMul is the reference triple loop the tiled kernels must match bit
// for bit (same ascending-k accumulation per output element).
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

func TestTiledKernelsBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Shapes straddling the tile boundaries and leaving every tail (0-3)
	// after the kernels' blocks of four.
	shapes := [][3]int{{1, 1, 1}, {3, 5, 4}, {5, 7, 6}, {4, 6, 7}, {17, 129, 31}, {130, 257, 129}, {96, 96, 96}, {120, 300, 160}}
	for _, s := range shapes {
		a := Randn(s[0], s[1], 1, rng)
		b := Randn(s[1], s[2], 1, rng)
		want := naiveMul(a, b)
		if MaxAbsDiff(Mul(a, b), want) != 0 {
			t.Fatalf("Mul %v not bit-identical to naive", s)
		}
		if MaxAbsDiff(MulT(a, Transpose(b)), want) != 0 {
			t.Fatalf("MulT %v not bit-identical to naive", s)
		}
		if MaxAbsDiff(TMul(Transpose(a), b), want) != 0 {
			t.Fatalf("TMul %v not bit-identical to naive", s)
		}
	}
}

func TestIntoVariantsMatchAndReuseDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(9, 17, 1, rng)
	b := Randn(17, 13, 1, rng)
	dst := Randn(9, 13, 1, rng) // dirty destination must be fully overwritten
	if MaxAbsDiff(MulInto(dst, a, b), Mul(a, b)) != 0 {
		t.Fatalf("MulInto differs from Mul")
	}
	bt := Transpose(b)
	dst2 := Randn(9, 13, 1, rng)
	if MaxAbsDiff(MulTInto(dst2, a, bt), MulT(a, bt)) != 0 {
		t.Fatalf("MulTInto differs from MulT")
	}
	c := Randn(9, 13, 1, rng)
	dst4 := Randn(17, 13, 1, rng)
	if MaxAbsDiff(TMulInto(dst4, a, c), TMul(a, c)) != 0 {
		t.Fatalf("TMulInto differs from TMul")
	}
}

func TestIntoShapePanics(t *testing.T) {
	cases := []func(){
		func() { MulInto(New(2, 2), New(2, 3), New(3, 3)) },  // dst cols wrong
		func() { MulInto(New(2, 3), New(2, 4), New(3, 3)) },  // inner mismatch
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
	m := FromSlice(1, 3, []float64{1, 2, 3})
	c := m.Clone()
	m.Zero()
	if m.Norm2() != 0 {
		t.Fatalf("Zero left %v", m)
	}
	if c.Norm2() == 0 {
		t.Fatalf("Zero affected clone")
	}
}
