package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveAddOuter is the definition: pair by pair, every entry of x, every
// column, one term at a time.
func naiveAddOuter(dst, x, y []float64, rows int) {
	m, n := len(x)/rows, len(y)/rows
	for k := 0; k < rows; k++ {
		for i := 0; i < m; i++ {
			a := x[k*m+i]
			if a == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				dst[i*n+j] += a * y[k*n+j]
			}
		}
	}
}

// checkAddOuter runs AddOuter (the host's dispatch), the Go body and the
// definition on copies of dst: the two bodies must give the same bits,
// and the definition those bits up to which NaN payload survives.
func checkAddOuter(t *testing.T, dst, x, y []float64, rows int) {
	t.Helper()
	got := append([]float64(nil), dst...)
	AddOuter(got, x, y, rows)
	goBody := append([]float64(nil), dst...)
	m, n := len(x)/rows, len(y)/rows
	addOuterGo(goBody, x, y, rows, m, n, n)
	want := append([]float64(nil), dst...)
	naiveAddOuter(want, x, y, rows)
	if !sameFloatBits(got, goBody) || !sameUpToNaNPayload(goBody, want) {
		t.Fatalf("%d pairs of %d x %d (vector %v):\nAddOuter   %v\nGo body    %v\ndefinition %v",
			rows, m, n, vector, got, goBody, want)
	}
}

// TestAddOuterBodiesBitIdentical: every width from 1 to 40 (the vector
// body's blocks of 16 and of 4 and every tail the Go body finishes), 1 to
// 12 entries a row of x, 1 to 6 row pairs, over values with signed zeros
// (skipped in x), subnormals, overflowing magnitudes and NaN, into a
// destination of stale values.
func TestAddOuterBodiesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = kernelValue(rng)
		}
		return s
	}
	EachBody(func(string) {
		for n := 1; n <= 40; n++ {
			for m := 1; m <= 12; m++ {
				rows := 1 + rng.Intn(6)
				checkAddOuter(t, fill(m*n), fill(rows*m), fill(rows*n), rows)
			}
		}
	})
}

// TestAddOuterIsTheProductFromZero: from a zeroed destination, AddOuter
// over a layer's rows is xᵀ·y summed over ascending rows — the product a
// weight's gradient is — on operands half zeros, as ReLU-masked
// activations are; the skipped zeros must not show.
func TestAddOuterIsTheProductFromZero(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 50; trial++ {
		rows, m, n := 1+rng.Intn(12), 1+rng.Intn(20), 1+rng.Intn(20)
		x, y := Randn(rows, m, 1, rng), Randn(rows, n, 1, rng)
		for i := range x.Data {
			if rng.Intn(2) == 0 {
				x.Data[i] = 0
			}
		}
		got := make([]float64, m*n)
		AddOuter(got, x.Data, y.Data, rows)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < rows; k++ {
					s += x.At(k, i) * y.At(k, j)
				}
				if math.Float64bits(got[i*n+j]) != math.Float64bits(s) {
					t.Fatalf("trial %d: (xᵀy)[%d][%d] = %v; want %v", trial, i, j, got[i*n+j], s)
				}
			}
		}
	}
}

func TestAddOuterChecksLengths(t *testing.T) {
	for i, f := range []func(){
		func() { AddOuter(make([]float64, 6), make([]float64, 2), make([]float64, 3), 0) }, // no rows
		func() { AddOuter(make([]float64, 6), make([]float64, 3), make([]float64, 4), 2) }, // x not whole rows
		func() { AddOuter(make([]float64, 5), make([]float64, 4), make([]float64, 6), 2) }, // dst not m x n
	} {
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

func TestAddOuterAllocs(t *testing.T) {
	dst, x, y := make([]float64, 16*16), make([]float64, 10*16), make([]float64, 10*16)
	if allocs := testing.AllocsPerRun(50, func() { AddOuter(dst, x, y, 10) }); allocs != 0 {
		t.Fatalf("AddOuter: %.1f allocs; want 0", allocs)
	}
}

// FuzzAddOuterBodiesBitIdentical: arbitrary bit patterns, NaN payloads
// included. shape picks the width (1-64), the entries a row of x (1-24)
// and the row pairs (1-8); data fills x, then y, then the stale
// destination.
func FuzzAddOuterBodiesBitIdentical(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), uint16(17|4<<6|2<<11))
	f.Fuzz(func(t *testing.T, data []byte, shape uint16) {
		n := 1 + int(shape&63)
		m := 1 + int(shape>>6&31)%24
		rows := 1 + int(shape>>11)%8
		x, y, dst := make([]float64, rows*m), make([]float64, rows*n), make([]float64, m*n)
		fuzzFloats(data, x, y, dst)
		got := append([]float64(nil), dst...)
		AddOuter(got, x, y, rows)
		addOuterGo(dst, x, y, rows, m, n, n)
		if !sameFloatBits(got, dst) {
			t.Fatalf("%d pairs of %d x %d:\nAddOuter %v\nGo body  %v", rows, m, n, got, dst)
		}
	})
}

// naiveAdamStep is the update as the optimizer spelled it before it ran
// on AdamStep.
func naiveAdamStep(w, m, v, g []float64, a *Adam) {
	for i, gi := range g {
		m[i] = a.Beta1*m[i] + a.C1*gi
		v[i] = a.Beta2*v[i] + a.C2*gi*gi
		mh := m[i] / a.BC1
		vh := v[i] / a.BC2
		w[i] -= a.LR * (mh / (math.Sqrt(vh) + a.Eps))
		if math.Abs(m[i]) < minNormal {
			m[i] = 0
		}
		if v[i] < minNormal {
			v[i] = 0
		}
	}
}

// adamAt returns the coefficients of step t at the optimizer's defaults
// and learning rate lr.
func adamAt(t int, lr float64) *Adam {
	return &Adam{
		Beta1: 0.9, Beta2: 0.999, C1: 1 - 0.9, C2: 1 - 0.999,
		BC1: 1 - math.Pow(0.9, float64(t)), BC2: 1 - math.Pow(0.999, float64(t)),
		LR: lr, Eps: 1e-8,
	}
}

// checkAdamStep runs AdamStep, the Go body and the definition on copies
// of the state: the bodies must agree bit for bit, the definition up to
// NaN payloads.
func checkAdamStep(t *testing.T, w, m, v, g []float64, a *Adam) {
	t.Helper()
	type state struct{ w, m, v []float64 }
	clone := func() state {
		return state{append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)}
	}
	got, goBody, want := clone(), clone(), clone()
	AdamStep(got.w, got.m, got.v, g, a)
	adamStepGo(goBody.w, goBody.m, goBody.v, g, a)
	naiveAdamStep(want.w, want.m, want.v, g, a)
	for _, p := range [][3][]float64{{got.w, goBody.w, want.w}, {got.m, goBody.m, want.m}, {got.v, goBody.v, want.v}} {
		if !sameFloatBits(p[0], p[1]) || !sameUpToNaNPayload(p[1], p[2]) {
			t.Fatalf("%d elements (vector %v), %+v:\nAdamStep   %v\nGo body    %v\ndefinition %v", len(g), vector, *a, p[0], p[1], p[2])
		}
	}
}

// TestAdamStepBodiesBitIdentical: every length from 0 to 40, at early and
// late steps, over gradients and moments with signed zeros, subnormals
// (the flush's threshold on both sides), overflowing magnitudes and NaN.
func TestAdamStepBodiesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	specials := []float64{minNormal, -minNormal, minNormal / 2, math.Nextafter(minNormal, 1), 1e-300}
	value := func() float64 {
		if rng.Intn(8) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return kernelValue(rng)
	}
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = value()
		}
		return s
	}
	EachBody(func(string) {
		for n := 0; n <= 40; n++ {
			for _, step := range []int{1, 2, 50, 5000} {
				v := fill(n)
				for i := range v {
					v[i] = math.Abs(v[i]) // a second moment is a sum of squares
				}
				checkAdamStep(t, fill(n), fill(n), v, fill(n), adamAt(step, 1e-3))
			}
		}
	})
}

func TestAdamStepChecksLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on a moment shorter than the gradient")
		}
	}()
	AdamStep(make([]float64, 4), make([]float64, 3), make([]float64, 4), make([]float64, 4), adamAt(1, 1e-3))
}

func TestAdamStepAllocs(t *testing.T) {
	w, m, v, g := make([]float64, 100), make([]float64, 100), make([]float64, 100), make([]float64, 100)
	a := adamAt(3, 1e-3)
	if allocs := testing.AllocsPerRun(50, func() { AdamStep(w, m, v, g, a) }); allocs != 0 {
		t.Fatalf("AdamStep: %.1f allocs; want 0", allocs)
	}
}

// FuzzAdamStepBodiesBitIdentical: arbitrary bit patterns for the state,
// the gradient and every coefficient, NaN payloads included. n picks the
// length (0-63); data fills the eight coefficients, then w, m, v and g.
func FuzzAdamStepBodiesBitIdentical(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	seed := []byte{}
	for _, c := range []float64{0.9, 0.999, 0.1, 0.001, 0.1, 0.001, 1e-3, 1e-8, 1, 2, 3, 4, 5, math.NaN(), 1e-310} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(c))
	}
	f.Add(seed, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		l := int(n % 64)
		coef := make([]float64, 8)
		w, m, v, g := make([]float64, l), make([]float64, l), make([]float64, l), make([]float64, l)
		fuzzFloats(data, coef, w, m, v, g)
		a := &Adam{coef[0], coef[1], coef[2], coef[3], coef[4], coef[5], coef[6], coef[7]}
		gw, gm, gv := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
		AdamStep(gw, gm, gv, g, a)
		adamStepGo(w, m, v, g, a)
		if !sameFloatBits(gw, w) || !sameFloatBits(gm, m) || !sameFloatBits(gv, v) {
			t.Fatalf("%d elements, %+v:\nAdamStep w %v m %v v %v\nGo body  w %v m %v v %v", l, *a, gw, gm, gv, w, m, v)
		}
	})
}

// BenchmarkAddOuter times one weight gradient of each body at the shape
// cg.linearBack forms it for the second layer of a 10-node SYN graph at
// Dim 16 (10 pairs of 16 x 16, the left rows ReLU-masked, so about half
// zeros) and one of an M_rk head's first layer (one pair of 48 x 32).
func BenchmarkAddOuter(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][3]int{{10, 16, 16}, {1, 48, 32}} {
		rows, m, n := shape[0], shape[1], shape[2]
		x, y := Randn(rows, m, 1, rng).Data, Randn(rows, n, 1, rng).Data
		for i, v := range x {
			x[i] = max(v, 0)
		}
		dst := make([]float64, m*n)
		EachBody(func(body string) {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", body, rows, m, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					AddOuter(dst, x, y, rows)
				}
			})
		})
	}
}

// BenchmarkAdamStep times one update of each body over an M_rk head's
// first layer (48 x 32 weights).
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 48 * 32
	w, m, g := Randn(1, n, 1, rng).Data, Randn(1, n, 1e-3, rng).Data, Randn(1, n, 1e-2, rng).Data
	v := make([]float64, n)
	for i := range v {
		v[i] = g[i] * g[i]
	}
	a := adamAt(100, 1e-3)
	EachBody(func(body string) {
		b.Run(body, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AdamStep(w, m, v, g, a)
			}
		})
	})
}
