package mat

import (
	"math/rand"
	"testing"
)

// The training kernels at the shape cg.linearBack runs them on for the
// second layer of a 10-node SYN graph at Dim 16: out = pre·W with pre
// 10 x 16 (ReLU-masked, so about half zeros) and W 16 x 16. MulTInto
// forms dpre = dout·Wᵀ and TMulInto W's gradient preᵀ·dout, each into a
// reused destination.
const benchRows, benchIn, benchDim = 10, 16, 16

func benchOperands() (pre, w, dout *Matrix) {
	rng := rand.New(rand.NewSource(1))
	pre = Randn(benchRows, benchIn, 1, rng)
	for i, v := range pre.Data {
		pre.Data[i] = max(v, 0)
	}
	return pre, Randn(benchIn, benchDim, 1, rng), Randn(benchRows, benchDim, 1, rng)
}

func BenchmarkMulTInto(b *testing.B) {
	_, w, dout := benchOperands()
	dpre := New(benchRows, benchIn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTInto(dpre, dout, w)
	}
}

func BenchmarkTMulInto(b *testing.B) {
	pre, _, dout := benchOperands()
	grad := New(benchIn, benchDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMulInto(grad, pre, dout)
	}
}
