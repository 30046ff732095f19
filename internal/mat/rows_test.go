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

// sameUpToNaNPayload is sameFloatBits except that a NaN of b matches any
// NaN of a. A definition written as a plain loop leaves to the compiler
// which operand of an add comes first, and so which NaN survives when
// both are NaN; the two bodies are held to each other's payloads
// exactly, and to the definition's everywhere else.
func sameUpToNaNPayload(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// kernelValue is rowsValue with NaN among the specials: the ReLU must let
// it through, and both bodies must agree on its payload.
func kernelValue(rng *rand.Rand) float64 {
	if rng.Intn(200) == 0 {
		return math.NaN()
	}
	return rowsValue(rng)
}

// naiveGatherRows is the definition: dst from +0, one term at a time in
// order, one element at a time.
func naiveGatherRows(dst []float64, terms []Term, src []float64) {
	n := len(dst)
	for j := range dst {
		dst[j] = 0
	}
	for _, t := range terms {
		for j := range dst {
			dst[j] += t.W * src[t.Row*n+j]
		}
	}
}

// naiveMulRowsReLU is the definition: each output row from +0, one term
// per non-zero entry of x's row in ascending order, then ReLU element by
// element.
func naiveMulRowsReLU(out, x []float64, din int, w []float64) {
	n := len(w) / din
	for r := 0; r < len(x)/din; r++ {
		for j := 0; j < n; j++ {
			out[r*n+j] = 0
		}
		for k := 0; k < din; k++ {
			a := x[r*din+k]
			if a == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[r*n+j] += a * w[k*n+j]
			}
		}
		for j := 0; j < n; j++ {
			if out[r*n+j] < 0 {
				out[r*n+j] = 0
			}
		}
	}
}

// TestGatherRowsBodiesBitIdentical: every width from 1 to 64, 0 to 40
// terms over a source of up to 12 rows (repeats included), into a
// destination full of stale values, on the host's dispatch, the Go body
// and the definition.
func TestGatherRowsBodiesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for width := 1; width <= 64; width++ {
		for nt := 0; nt <= 40; nt++ {
			rows := 1 + rng.Intn(12)
			src := make([]float64, rows*width)
			for k := range src {
				src[k] = kernelValue(rng)
			}
			terms := make([]Term, nt)
			for i := range terms {
				terms[i] = Term{Row: rng.Intn(rows), W: kernelValue(rng)}
			}
			stale := make([]float64, width)
			for j := range stale {
				stale[j] = kernelValue(rng)
			}
			got := append([]float64(nil), stale...)
			GatherRows(got, terms, src)
			goBody := append([]float64(nil), stale...)
			gatherRowsGo(goBody, terms, src, width)
			want := make([]float64, width)
			naiveGatherRows(want, terms, src)
			if !sameFloatBits(got, goBody) || !sameUpToNaNPayload(goBody, want) {
				t.Fatalf("width %d, %d terms (vector %v):\nGatherRows %v\nGo body    %v\ndefinition %v", width, nt, vector, got, goBody, want)
			}
		}
	}
}

// TestMulRowsReLUBodiesBitIdentical: every width from 1 to 64, 0 to 40
// rows, inner widths 1 to 24, x a third zeros of either sign, into an
// output full of stale values, on the host's dispatch, the Go body and
// the definition. Normal draws make about half the sums negative, so the
// ReLU's zeroing shows; NaN and −0 must pass it.
func TestMulRowsReLUBodiesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for width := 1; width <= 64; width++ {
		for rows := 0; rows <= 40; rows++ {
			din := 1 + rng.Intn(24)
			x := make([]float64, rows*din)
			for k := range x {
				x[k] = kernelValue(rng)
				if rng.Intn(3) == 0 {
					x[k] = rowsSpecials[rng.Intn(2)]
				}
			}
			w := make([]float64, din*width)
			for k := range w {
				w[k] = kernelValue(rng)
			}
			stale := make([]float64, rows*width)
			for k := range stale {
				stale[k] = kernelValue(rng)
			}
			got := append([]float64(nil), stale...)
			MulRowsReLU(got, x, din, w)
			goBody := append([]float64(nil), stale...)
			mulRowsReLUGo(goBody, x, w, din, width, width)
			want := make([]float64, rows*width)
			naiveMulRowsReLU(want, x, din, w)
			if !sameFloatBits(got, goBody) || !sameUpToNaNPayload(goBody, want) {
				t.Fatalf("width %d, %d rows, din %d (vector %v):\nMulRowsReLU %v\nGo body     %v\ndefinition  %v", width, rows, din, vector, got, goBody, want)
			}
		}
	}
}

// TestMulRowsReLUEdgeValues pins the ReLU on both bodies to fixed
// values rather than to a definition: a negative sum and −∞ become +0,
// NaN and +∞ pass, and a −0 product added to the +0 start is +0.
func TestMulRowsReLUEdgeValues(t *testing.T) {
	x := []float64{1}
	w := []float64{-1, math.Copysign(0, -1), math.NaN(), 2, -3, 4, math.Inf(-1), math.Inf(1)}
	EachBody(func(body string) {
		out := make([]float64, len(w))
		MulRowsReLU(out, x, 1, w)
		want := []float64{0, 0, math.NaN(), 2, 0, 4, 0, math.Inf(1)}
		if !sameFloatBits(out, want) {
			t.Fatalf("%s body: %v, want %v", body, out, want)
		}
	})
}

func TestGatherRowsChecksRows(t *testing.T) {
	for _, row := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("row %d of 3: no panic", row)
				}
			}()
			GatherRows(make([]float64, 4), []Term{{Row: 0, W: 1}, {Row: row, W: 1}}, make([]float64, 14))
		}()
	}
	GatherRows(make([]float64, 4), []Term{{Row: 2, W: 1}}, make([]float64, 12)) // the last row
}

func TestMulRowsReLUChecksLengths(t *testing.T) {
	for _, c := range []struct{ out, x, din, w int }{{9, 6, 3, 12}, {8, 6, 0, 12}, {8, 7, 3, 12}, {8, 6, 3, 11}, {6, 6, 3, 12}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: no panic", c)
				}
			}()
			MulRowsReLU(make([]float64, c.out), make([]float64, c.x), c.din, make([]float64, c.w))
		}()
	}
	MulRowsReLU(make([]float64, 8), make([]float64, 6), 3, make([]float64, 12))
}

func TestGatherRowsAllocs(t *testing.T) {
	dst, src := make([]float64, 32), make([]float64, 10*32)
	terms := []Term{{1, 2}, {4, 1}, {9, 3}}
	if n := testing.AllocsPerRun(20, func() { GatherRows(dst, terms, src) }); n != 0 {
		t.Fatalf("GatherRows allocates %v objects", n)
	}
}

func TestMulRowsReLUAllocs(t *testing.T) {
	out, x, w := make([]float64, 10*32), make([]float64, 10*16), make([]float64, 16*32)
	if n := testing.AllocsPerRun(20, func() { MulRowsReLU(out, x, 16, w) }); n != 0 {
		t.Fatalf("MulRowsReLU allocates %v objects", n)
	}
}

// fuzzFloats reads eight bytes a value from data into each slice in turn,
// zeros once it runs out.
func fuzzFloats(data []byte, slices ...[]float64) {
	for _, s := range slices {
		for k := range s {
			if len(data) < 8 {
				s[k] = 0
				continue
			}
			s[k] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
	}
}

// FuzzGatherRowsBodiesBitIdentical: arbitrary bit patterns, NaN payloads
// included. shape picks the width (1-64), the terms (0-40) and the source
// rows (1-16); idx names each term's row (mod the rows); data fills the
// weights, then the source, then the stale destination.
func FuzzGatherRowsBodiesBitIdentical(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), []byte{0, 3, 3, 1}, uint16(17|3<<6|3<<12))
	f.Fuzz(func(t *testing.T, data, idx []byte, shape uint16) {
		width := 1 + int(shape&63)
		nt := int(shape>>6) % 41
		rows := 1 + int(shape>>12)
		weights, src, dst := make([]float64, nt), make([]float64, rows*width), make([]float64, width)
		fuzzFloats(data, weights, src, dst)
		terms := make([]Term, nt)
		for i := range terms {
			if i < len(idx) {
				terms[i].Row = int(idx[i]) % rows
			}
			terms[i].W = weights[i]
		}
		got := append([]float64(nil), dst...)
		GatherRows(got, terms, src)
		gatherRowsGo(dst, terms, src, width)
		if !sameFloatBits(got, dst) {
			t.Fatalf("width %d, %d terms:\nGatherRows %v\nGo body    %v", width, nt, got, dst)
		}
	})
}

// FuzzMulRowsReLUBodiesBitIdentical: arbitrary bit patterns, NaN payloads
// included. shape picks the width (1-64), the rows (0-40) and the inner
// width (1-24); data fills x, then w, then the stale output.
func FuzzMulRowsReLUBodiesBitIdentical(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-1e300)), uint32(16|2<<6|5<<12))
	f.Fuzz(func(t *testing.T, data []byte, shape uint32) {
		width := 1 + int(shape&63)
		rows := int(shape>>6&63) % 41
		din := 1 + int(shape>>12&31)%24
		x, w, out := make([]float64, rows*din), make([]float64, din*width), make([]float64, rows*width)
		fuzzFloats(data, x, w, out)
		got := append([]float64(nil), out...)
		MulRowsReLU(got, x, din, w)
		mulRowsReLUGo(out, x, w, din, width, width)
		if !sameFloatBits(got, out) {
			t.Fatalf("width %d, %d rows, din %d:\nMulRowsReLU %v\nGo body     %v", width, rows, din, got, out)
		}
	})
}

// BenchmarkGatherRows times one group's aggregation at a dense cross
// level's shape: three terms of 16 columns from a 10-row level.
func BenchmarkGatherRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, dst := Randn(10, 16, 1, rng).Data, make([]float64, 16)
	terms := []Term{{0, 1}, {3, 2}, {7, 1}}
	EachBody(func(body string) {
		b.Run(body, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GatherRows(dst, terms, src)
			}
		})
	})
}

// BenchmarkMulRowsReLU times one side's product at a cross layer's
// shapes: 10 rows into 16 columns from a dense 16-wide level ("dense")
// and from a one-hot-like level at a 52-wide vocabulary, three non-zero
// entries a row ("sparse").
func BenchmarkMulRowsReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []struct {
		name    string
		din, nz int
	}{{"dense", 16, 16}, {"sparse", 52, 3}} {
		x := make([]float64, 10*shape.din)
		for r := 0; r < 10; r++ {
			for _, k := range rng.Perm(shape.din)[:shape.nz] {
				x[r*shape.din+k] = rng.NormFloat64()
			}
		}
		w, out := Randn(shape.din, 16, 1, rng).Data, make([]float64, 10*16)
		EachBody(func(body string) {
			b.Run(body+"/"+shape.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MulRowsReLU(out, x, shape.din, w)
				}
			})
		})
	}
}
