package mat

import "fmt"

// vector is whether AddRowsScaled runs its vector body. It is set once,
// at package init, from what the host reports (an amd64 CPU and OS with
// AVX); EachBody clears it for tests.
var vector = hasAVX()

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

// EachBody calls f once per body of AddRowsScaled: "vector" with the
// host's dispatch (which is the Go body on a host without AVX), then "go"
// with the vector body switched off. It is for tests that hold the
// kernel's callers to the same bits on both; no kernel may run on another
// goroutine meanwhile.
func EachBody(f func(body string)) {
	f("vector")
	was := vector
	vector = false
	defer func() { vector = was }()
	f("go")
}
