package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowsSpecials are the values a kernel body is most likely to get wrong:
// signed zeros, subnormals, and magnitudes whose products overflow to ±Inf
// and whose sums of opposite infinities make NaN.
var rowsSpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072e-310, 1e300, -1e300, 1, -1,
}

// rowsValue draws a normal value most of the time and a special one
// otherwise.
func rowsValue(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return rowsSpecials[rng.Intn(len(rowsSpecials))]
	}
	return rng.NormFloat64()
}

// naiveAddRows is the definition: one row at a time, one term per
// element, ascending rows.
func naiveAddRows(dst, x, w []float64, stride int) {
	for i, a := range x {
		for j := range dst {
			dst[j] += a * w[i*stride+j]
		}
	}
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAddRows runs AddRowsScaled (the host's dispatch), the Go body and
// the definition on copies of dst and requires the same bits from all
// three.
func checkAddRows(t *testing.T, dst, x, w []float64, stride int) {
	t.Helper()
	got := append([]float64(nil), dst...)
	AddRowsScaled(got, x, w, stride)
	goBody := append([]float64(nil), dst...)
	if len(x) > 0 && len(dst) > 0 {
		addRowsScaledGo(goBody, x, w, stride)
	}
	want := append([]float64(nil), dst...)
	naiveAddRows(want, x, w, stride)
	if !sameFloatBits(got, want) || !sameFloatBits(goBody, want) {
		t.Fatalf("width %d, %d rows, stride %d (vector %v):\nAddRowsScaled %v\nGo body       %v\ndefinition    %v",
			len(dst), len(x), stride, vector, got, goBody, want)
	}
}

// TestAddRowsScaledBodiesBitIdentical: every width from 1 to 64 (the
// vector body's blocks of 16 and of 4 and every tail the Go body
// finishes), 0 to 40 rows, strides equal to and wider than the width,
// over values with signed zeros, subnormals and overflowing magnitudes.
func TestAddRowsScaledBodiesBitIdentical(t *testing.T) {
	if !vector {
		t.Log("no AVX on this host: the dispatch runs the Go body")
	}
	rng := rand.New(rand.NewSource(44))
	for width := 1; width <= 64; width++ {
		for rows := 0; rows <= 40; rows++ {
			stride := width
			if rows%3 == 1 {
				stride += 1 + rng.Intn(9)
			}
			dst := make([]float64, width)
			for j := range dst {
				dst[j] = rowsValue(rng)
			}
			x := make([]float64, rows)
			for i := range x {
				x[i] = rowsValue(rng)
			}
			w := make([]float64, max(0, (rows-1)*stride+width))
			for k := range w {
				w[k] = rowsValue(rng)
			}
			checkAddRows(t, dst, x, w, stride)
		}
	}
}

// TestAddRowsScaledAddsZeroRowsHarmlessly pins why a caller that used to
// skip the zero entries of x may hand them to the kernel instead: an
// accumulator that starts at +0 never becomes -0 under round-to-nearest
// (a sum is -0 only if both addends are), so adding a ±0 product — which
// is what a zero entry times a finite weight gives — leaves it as it was.
func TestAddRowsScaledAddsZeroRowsHarmlessly(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 200; trial++ {
		width, rows := 1+rng.Intn(40), rng.Intn(30)
		x := make([]float64, rows)
		for i := range x {
			switch rng.Intn(4) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = negZero
			default:
				x[i] = float64(rng.Intn(5) - 2) // exact cancellations happen
			}
		}
		w := make([]float64, rows*width)
		for k := range w {
			w[k] = float64(rng.Intn(7)-3) * []float64{1, negZero, 0.5}[rng.Intn(3)]
		}
		dense := make([]float64, width)
		AddRowsScaled(dense, x, w, width)
		skipped := make([]float64, width)
		for i, a := range x {
			if a != 0 {
				AddRowsScaled(skipped, x[i:i+1], w[i*width:], width)
			}
		}
		if !sameFloatBits(dense, skipped) {
			t.Fatalf("trial %d: dense %v, zero rows skipped %v", trial, dense, skipped)
		}
	}
}

func TestAddRowsScaledChecksLengths(t *testing.T) {
	for _, c := range []struct {
		dst, rows, stride, w int
	}{{4, 2, 3, 8}, {4, 2, 4, 7}, {5, 3, 6, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: no panic", c)
				}
			}()
			AddRowsScaled(make([]float64, c.dst), make([]float64, c.rows), make([]float64, c.w), c.stride)
		}()
	}
	AddRowsScaled(make([]float64, 5), make([]float64, 3), make([]float64, 17), 6) // the last row may end at the width
}

func TestAddRowsScaledAllocs(t *testing.T) {
	dst, x, w := make([]float64, 32), make([]float64, 48), make([]float64, 48*32)
	if n := testing.AllocsPerRun(20, func() { AddRowsScaled(dst, x, w, 32) }); n != 0 {
		t.Fatalf("AddRowsScaled allocates %v objects", n)
	}
}

// FuzzAddRowsScaledBodiesBitIdentical: arbitrary float64 bit patterns at
// arbitrary widths, row counts and strides. NaN inputs are included: the
// vector body orders its operands as the compiled Go body does, so even
// which NaN payload survives must agree. shape picks the width (1-64), the
// rows (0-40) and the extra stride (0-7); data is read eight bytes a
// value, dst then x then w, and runs out into zeros.
func FuzzAddRowsScaledBodiesBitIdentical(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e300)), uint16(17|9<<6))
	f.Fuzz(func(t *testing.T, data []byte, shape uint16) {
		width := 1 + int(shape&63)
		rows := int(shape>>6) % 41
		stride := width + int(shape>>12)%8
		next := func() float64 {
			if len(data) < 8 {
				data = nil
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		dst, x := make([]float64, width), make([]float64, rows)
		w := make([]float64, max(0, (rows-1)*stride+width))
		for _, s := range [][]float64{dst, x, w} {
			for k := range s {
				s[k] = next()
			}
		}
		got := append([]float64(nil), dst...)
		AddRowsScaled(got, x, w, stride)
		goBody := append([]float64(nil), dst...)
		if rows > 0 {
			addRowsScaledGo(goBody, x, w, stride)
		}
		if !sameFloatBits(got, goBody) {
			t.Fatalf("width %d, %d rows, stride %d:\nAddRowsScaled %v\nGo body       %v", width, rows, stride, got, goBody)
		}
	})
}

// BenchmarkAddRowsScaled times one product of each body at a cross
// layer's shape (16 rows into 16 columns) and at the first layer of an
// M_rk head (48 into 32), so the per-kernel ratio can be read off.
func BenchmarkAddRowsScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{16, 16}, {48, 32}} {
		rows, cols := shape[0], shape[1]
		x, w := Randn(1, rows, 1, rng).Data, Randn(rows, cols, 1, rng).Data
		dst := make([]float64, cols)
		EachBody(func(body string) {
			b.Run(fmt.Sprintf("%s/%dx%d", body, rows, cols), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					AddRowsScaled(dst, x, w, cols)
				}
			})
		})
	}
}
