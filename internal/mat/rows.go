package mat

import "fmt"

// avx is what the host reports at package init: an amd64 CPU and OS with
// AVX. vector is whether the row kernels run their vector bodies; it starts
// as avx, and EachBody clears it for tests.
var (
	avx    = hasAVX()
	vector = avx
)

// popcnt512 is what the host reports at package init: an amd64 CPU and OS
// with AVX-512 VL and VPOPCNTQ. No kernel of this package uses it.
var popcnt512 = hasVPOPCNTQ()

// HasAVX reports whether the host runs AVX code: an amd64 CPU with AVX whose
// OS saves the YMM registers. It does not change when EachBody switches the
// row kernels' bodies. Other packages' vector kernels dispatch on it instead
// of asking the CPU again.
func HasAVX() bool { return avx }

// HasVPOPCNTQ reports whether the host runs AVX-512 code with VPOPCNTQ: an
// amd64 CPU with AVX2, AVX-512 F and VL and VPOPCNTDQ whose OS saves the
// opmask and ZMM registers. Like HasAVX it is asked of the CPU once.
func HasVPOPCNTQ() bool { return popcnt512 }

// AddRowsScaled adds to dst the rows of w scaled by x: dst[j] +=
// x[i]·w[i·stride+j] for every i in ascending order, each term a multiply
// then an add, rounded separately. Row i of w is w[i·stride:][:len(dst)],
// so a one-row operand times a matrix is AddRowsScaled(dst, x, m.Data,
// m.Cols), and a stride wider than dst reads a column block. Zero
// entries of x are not skipped.
//
// Every dst[j] gets its terms one at a time in the order a plain loop
// gives them, so the result is the same bits on either body: the vector
// one, which runs four columns per instruction (VMULPD then VADDPD, never
// a fused multiply-add, whose single rounding would change the sums), and
// the Go one. It allocates nothing.
func AddRowsScaled(dst, x, w []float64, stride int) {
	n := len(dst)
	if n == 0 || len(x) == 0 {
		return
	}
	if stride < n || len(w) < (len(x)-1)*stride+n {
		panic(fmt.Sprintf("mat: %d rows of %d at stride %d from %d values", len(x), n, stride, len(w)))
	}
	if vector && n >= 4 {
		c := n &^ 3
		addRowsScaledAVX(&dst[0], &x[0], &w[0], c, len(x), stride)
		if c == n {
			return
		}
		dst, w = dst[c:], w[c:]
	}
	addRowsScaledGo(dst, x, w, stride)
}

// addRowsScaledGo is AddRowsScaled's portable body, and the oracle the
// vector body is held to. Four rows of w go through one pass over dst:
// every dst[j] still receives its terms one at a time in ascending order,
// so the blocking changes no float, only how often dst is loaded and
// stored.
func addRowsScaledGo(dst, x, w []float64, stride int) {
	n := len(dst)
	i := 0
	for ; i+4 <= len(x); i += 4 {
		a0, a1, a2, a3 := x[i], x[i+1], x[i+2], x[i+3]
		r0, r1 := w[i*stride:][:n], w[(i+1)*stride:][:n]
		r2, r3 := w[(i+2)*stride:][:n], w[(i+3)*stride:][:n]
		for j, d := range dst {
			d += a0 * r0[j]
			d += a1 * r1[j]
			d += a2 * r2[j]
			d += a3 * r3[j]
			dst[j] = d
		}
	}
	for ; i < len(x); i++ {
		a := x[i]
		for j, b := range w[i*stride:][:n] {
			dst[j] += a * b
		}
	}
}

// Term is one weighted row of a GatherRows sum: W times row Row of the
// source.
type Term struct {
	Row int
	W   float64
}

// GatherRows sets dst to the weighted sum of the source rows the terms
// name: dst[j] = Σ t.W·src[t.Row·len(dst)+j] over the terms in order,
// each a multiply then an add, from a +0 start. No terms leave dst +0.
// It keeps AddRowsScaled's rules — the same bits on the vector body and
// the Go one, four columns per instruction, no fused multiply-add — and
// allocates nothing.
func GatherRows(dst []float64, terms []Term, src []float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	rows := len(src) / n
	for _, t := range terms {
		if uint(t.Row) >= uint(rows) {
			panic(fmt.Sprintf("mat: row %d of %d rows %d wide", t.Row, rows, n))
		}
	}
	c := 0
	if vector && n >= 4 && len(terms) > 0 {
		c = n &^ 3
		gatherRowsAVX(&dst[0], &terms[0], len(terms), &src[0], c, n)
		if c == n {
			return
		}
	}
	gatherRowsGo(dst[c:], terms, src[c:], n)
}

// gatherRowsGo is GatherRows' portable body and the oracle the vector body
// is held to; row r of src is src[r·stride:][:len(dst)].
func gatherRowsGo(dst []float64, terms []Term, src []float64, stride int) {
	clear(dst)
	for _, t := range terms {
		a := t.W
		for j, b := range src[t.Row*stride:][:len(dst)] {
			dst[j] += a * b
		}
	}
}

// MulRowsReLU sets out to ReLU(x·w): x is rows × din, w is din × n and
// out is rows × n, all row major. Each out[r·n+j] starts at +0 and takes
// x[r·din+k]·w[k·n+j] over ascending k, skipping the k whose x entry is
// ±0 (a NaN is kept); from a +0 start a skipped term changes no sum, so
// only the work differs from the full product. A negative result becomes
// +0; NaN and −0 stay. It keeps AddRowsScaled's rules and allocates
// nothing.
func MulRowsReLU(out, x []float64, din int, w []float64) {
	if din <= 0 || len(x)%din != 0 || len(w)%din != 0 || len(out) != len(x)/din*(len(w)/din) {
		panic(fmt.Sprintf("mat: %d values times %d at inner width %d into %d", len(x), len(w), din, len(out)))
	}
	rows, n := len(x)/din, len(w)/din
	if rows == 0 || n == 0 {
		return
	}
	c := 0
	if vector && n >= 4 {
		c = n &^ 3
		mulRowsReLUAVX(&out[0], &x[0], rows, din, &w[0], c, n)
		if c == n {
			return
		}
	}
	mulRowsReLUGo(out[c:], x, w[c:], din, n-c, n)
}

// mulRowsReLUGo is MulRowsReLU's portable body and the oracle the vector
// body is held to, over n columns of rows at stride: row r of out is
// out[r·stride:][:n], row k of w is w[k·stride:][:n].
func mulRowsReLUGo(out, x, w []float64, din, n, stride int) {
	for r := 0; r < len(x)/din; r++ {
		o := out[r*stride:][:n]
		clear(o)
		for k, a := range x[r*din:][:din] {
			if a == 0 {
				continue
			}
			for j, b := range w[k*stride:][:n] {
				o[j] += a * b
			}
		}
		for j, v := range o {
			if v < 0 {
				o[j] = 0
			}
		}
	}
}

// EachBody calls f once per body of the row kernels (AddRowsScaled,
// GatherRows, MulRowsReLU): "vector" with the host's dispatch (which is
// the Go body on a host without AVX), then "go" with the vector body
// switched off. It is for tests that hold the kernels' callers to the
// same bits on both; no kernel may run on another goroutine meanwhile.
func EachBody(f func(body string)) {
	f("vector")
	was := vector
	vector = false
	defer func() { vector = was }()
	f("go")
}
