package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks for the product kernels at the sizes the GNNs actually see:
// tiny cross-encoder heads (16), mid-size layer matmuls (64), and a large
// product past the row-split threshold (256). MulInto is benchmarked with
// a reused destination to show the allocation-free steady state.

var benchSizes = []int{16, 64, 256}

func benchMatrices(n int) (*Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(int64(n)))
	return Randn(n, n, 1, rng), Randn(n, n, 1, rng)
}

func BenchmarkMul(b *testing.B) {
	for _, n := range benchSizes {
		a, c := benchMatrices(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Mul(a, c)
			}
		})
	}
}

func BenchmarkMulInto(b *testing.B) {
	for _, n := range benchSizes {
		a, c := benchMatrices(n)
		dst := New(n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulInto(dst, a, c)
			}
		})
	}
}

func BenchmarkMulT(b *testing.B) {
	for _, n := range benchSizes {
		a, c := benchMatrices(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulT(a, c)
			}
		})
	}
}

func BenchmarkTMul(b *testing.B) {
	for _, n := range benchSizes {
		a, c := benchMatrices(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				TMul(a, c)
			}
		})
	}
}
