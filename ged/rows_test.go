package ged

import (
	"flag"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// bodyFlag picks the row kernels' body for a whole test run: -body=go runs
// every test, benchmark and fuzz target of the package on the Go bodies
// (fuzz workers get the flag too), so a fuzz target that calls the solvers
// can be run once per body.
var bodyFlag = flag.String("body", "vector", `row kernel body: "vector" (the host's dispatch) or "go"`)

func TestMain(m *testing.M) {
	flag.Parse()
	switch *bodyFlag {
	case "vector":
	case "go":
		vector = false
	default:
		os.Stderr.WriteString("ged: -body must be vector or go\n")
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// eachBody calls f once per body of the row kernels: "vector" with the
// run's dispatch (the Go body on a host without AVX, or under -body=go),
// then "go" with the vector body switched off. No kernel may run on another
// goroutine meanwhile.
func eachBody(f func(body string)) {
	f("vector")
	was := vector
	vector = false
	defer func() { vector = was }()
	f("go")
}

// TestGoBodiesMatchReference runs the solvers' identity tests once more on
// the Go bodies; the plain run has them on the host's dispatch.
func TestGoBodiesMatchReference(t *testing.T) {
	was := vector
	vector = false
	defer func() { vector = was }()
	for _, test := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"BipartiteKernelsMatchReference", TestBipartiteKernelsMatchReference},
		{"EnsembleMatchesReference", TestEnsembleMatchesReference},
		{"ReusedArenaMatchesFresh", TestReusedArenaMatchesFresh},
		{"EnsembleSolvesEachBoundOnce", TestEnsembleSolvesEachBoundOnce},
		{"SolversAgreeOnLargerMatrices", TestSolversAgreeOnLargerMatrices},
		{"CostCellsAreHalfIntegers", TestCostCellsAreHalfIntegers},
	} {
		t.Run(test.name, test.run)
	}
}

// halfReader reads the kernels' kind of value off fuzz bytes, round and
// round: a multiple of ½ in [−4, 4], where equal values are common, or,
// where infinities are allowed, ±∞ for the top sixteen byte values. Never
// −0: no solver value is (assignment.go).
type halfReader struct {
	data []byte
	k    int
}

func (r *halfReader) next(withInf bool) float64 {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.k%len(r.data)]
	r.k++
	switch {
	case withInf && b >= 0xf8:
		return math.Inf(-1)
	case withInf && b >= 0xf0:
		return math.Inf(1)
	}
	return float64(int(b%17)-8) / 2
}

func (r *halfReader) floats(n int, withInf bool) []float64 {
	s := make([]float64, n)
	for j := range s {
		s[j] = r.next(withInf)
	}
	return s
}

// sentinel fills the mask words past the ones a kernel writes, which no
// body may touch.
const sentinel = 0x5a5a5a5a5a5a5a5a

func maskBuf(n int) []uint64 {
	m := make([]uint64, (n+63)/64+1)
	for w := range m {
		m[w] = sentinel
	}
	return m
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// The check* functions run one kernel on both bodies over one input of n
// cells decoded from data, and fail unless every output is the same bits.

// slot is the index of a body's outputs in a check: vector first.
func slot(body string) int {
	if body == "vector" {
		return 0
	}
	return 1
}

func checkZeroMask(t testing.TB, n int, data []byte) {
	r := &halfReader{data: data}
	base := r.next(false)
	c, v := r.floats(n, false), r.floats(n, false)
	if len(data) > 0 && data[0]&1 == 0 {
		// Offers of |x| ≥ 0: the row does not fail.
		for j := range v {
			v[j] = base + c[j] - math.Abs(v[j])
		}
	}
	var masks [2][]uint64
	var oks [2]bool
	eachBody(func(body string) {
		m := maskBuf(n)
		k := slot(body)
		oks[k] = zeroMask(m, c, v, base)
		masks[k] = m
	})
	if oks[0] != oks[1] || (oks[0] && !slices.Equal(masks[0], masks[1])) {
		t.Fatalf("zeroMask n=%d base=%v: bodies differ: %v %x / %v %x", n, base, oks[0], masks[0], oks[1], masks[1])
	}
	for _, m := range masks {
		if m[len(m)-1] != sentinel {
			t.Fatalf("zeroMask n=%d wrote past its words: %x", n, m)
		}
	}
}

func checkRelax(t testing.TB, n int, data []byte) {
	r := &halfReader{data: data}
	base, level := r.next(false), r.next(true)
	if level < 0 && math.IsInf(level, 0) {
		level = math.Inf(1)
	}
	i := int32(r.next(false) * 8)
	c, v, dist := r.floats(n, false), r.floats(n, false), r.floats(n+1, true)
	pred := make([]int32, n+1)
	for j := range pred {
		pred[j] = int32(j) - 3
	}
	type out struct {
		dist []float64
		pred []int32
		cand []uint64
	}
	var got [2]out
	eachBody(func(body string) {
		o := out{dist: slices.Clone(dist), pred: slices.Clone(pred), cand: maskBuf(n)}
		relax(o.dist, o.pred, c, v, base, i, level, o.cand)
		got[slot(body)] = o
	})
	a, b := got[0], got[1]
	if !sameBits(a.dist, b.dist) || !slices.Equal(a.pred, b.pred) || !slices.Equal(a.cand, b.cand) {
		t.Fatalf("relax n=%d base=%v level=%v: bodies differ:\n%v %v %x\n%v %v %x",
			n, base, level, a.dist, a.pred, a.cand, b.dist, b.pred, b.cand)
	}
	if a.dist[n] != dist[n] || a.pred[n] != pred[n] || a.cand[len(a.cand)-1] != sentinel {
		t.Fatalf("relax n=%d wrote past the row", n)
	}
}

func checkArgmin(t testing.TB, n int, data []byte) {
	r := &halfReader{data: data}
	c, v := r.floats(n, false), r.floats(n, false)
	var js [2]int
	var ds [2]float64
	eachBody(func(body string) {
		k := slot(body)
		js[k], ds[k] = rowArgmin(c, v)
	})
	if js[0] != js[1] || math.Float64bits(ds[0]) != math.Float64bits(ds[1]) {
		t.Fatalf("rowArgmin n=%d: bodies differ: (%d, %v) / (%d, %v)", n, js[0], ds[0], js[1], ds[1])
	}
}

func checkLevel(t testing.TB, n int, data []byte) {
	r := &halfReader{data: data}
	dist := r.floats(n, true)
	var lvls [2][]uint64
	var levels [2]float64
	eachBody(func(body string) {
		k := slot(body)
		lvls[k] = maskBuf(n)
		levels[k] = levelSet(dist, lvls[k])
	})
	if !slices.Equal(lvls[0], lvls[1]) || math.Float64bits(levels[0]) != math.Float64bits(levels[1]) {
		t.Fatalf("levelSet %v: bodies differ: %v %x / %v %x", dist, levels[0], lvls[0], levels[1], lvls[1])
	}
	if lvls[0][len(lvls[0])-1] != sentinel {
		t.Fatalf("levelSet n=%d wrote past its words", n)
	}
}

func checkCostRow(t testing.TB, n int, data []byte, structural bool) {
	at := func(k int) int32 {
		if len(data) == 0 {
			return 0
		}
		return int32(int8(data[k%len(data)]))
	}
	la, da := at(0)%5, at(1)
	lab, deg := make([]int32, n), make([]int32, n)
	for j := range lab {
		lab[j], deg[j] = at(2+2*j)%5, at(3+2*j)
	}
	var rows [2][]float64
	eachBody(func(body string) {
		row := make([]float64, n+1)
		row[n] = 7
		fillCostRow(row[:n], la, da, lab, deg, structural)
		rows[slot(body)] = row
	})
	if !sameBits(rows[0], rows[1]) || rows[0][n] != 7 {
		t.Fatalf("fillCostRow structural=%v la=%d da=%d %v %v: bodies differ: %v / %v", structural, la, da, lab, deg, rows[0], rows[1])
	}
}

// TestRowKernelsBodiesBitIdentical sweeps every row length up to three
// mask words and a half, with random inputs, through every kernel.
func TestRowKernelsBodiesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for n := 0; n <= 230; n++ {
		for trial := 0; trial < 4; trial++ {
			data := make([]byte, 1+rng.Intn(3*n+8))
			rng.Read(data)
			checkZeroMask(t, n, data)
			checkRelax(t, n, data)
			checkLevel(t, n, data)
			checkCostRow(t, n, data, false)
			checkCostRow(t, n, data, true)
			if n > 0 {
				checkArgmin(t, n, data)
			}
		}
	}
}

// TestRowKernelsKnownRows pins each kernel's result on a hand-worked row,
// so that both bodies agreeing on a wrong answer fails too.
func TestRowKernelsKnownRows(t *testing.T) {
	inf := math.Inf(1)
	eachBody(func(body string) {
		// Offers 0 + c − v: 2, 0.5, 0.5, 3, 0.5.
		c := []float64{3, 1, 2, 3, 1.5}
		v := []float64{1, 0.5, 1.5, 0, 1}
		if j, d := rowArgmin(c, v); j != 1 || d != 0.5 {
			t.Errorf("%s: rowArgmin = %d, %v; want 1, 0.5", body, j, d)
		}
		// At base −0.5 the offers are 1.5, 0, 0, 2.5, 0.
		mask := []uint64{0}
		if !zeroMask(mask, c, v, -0.5) || mask[0] != 0b10110 {
			t.Errorf("%s: zeroMask = %b; want 10110", body, mask[0])
		}
		if zeroMask(mask, c, v, -1) {
			t.Errorf("%s: zeroMask at base −1 did not fail", body)
		}
		// Relaxing offers 2, 0.5, 0.5, 3, 0.5 against dist 1, ∞, 0.5, ∞, 2 at level 1.
		dist := []float64{1, inf, 0.5, inf, 2}
		pred := []int32{-1, -1, -1, -1, -1}
		cand := []uint64{0}
		relax(dist, pred, c, v, 0, 7, 1, cand)
		if cand[0] != 0b10010 || !slices.Equal(pred, []int32{-1, 7, -1, 7, 7}) ||
			!slices.Equal(dist, []float64{1, 0.5, 0.5, 3, 0.5}) {
			t.Errorf("%s: relax = %b %v %v", body, cand[0], pred, dist)
		}
		// Column 0 sits at the level 1 already; both marked columns undercut it.
		lvl := []uint64{0b1}
		if level := joinOffers(lvl, cand, dist, 1); level != 0.5 || lvl[0] != 0b10010 {
			t.Errorf("%s: joinOffers = %v %b; want 0.5 10010", body, level, lvl[0])
		}
		dist[1] = math.Inf(-1)
		if level := levelSet(dist, lvl); level != 0.5 || lvl[0] != 0b10100 {
			t.Errorf("%s: levelSet = %v %b; want 0.5 10100", body, level, lvl[0])
		}
		row := make([]float64, 3)
		fillCostRow(row, 1, 3, []int32{1, 2, 1}, []int32{0, 3, 4}, true)
		if !slices.Equal(row, []float64{1.5, 1, 0.5}) {
			t.Errorf("%s: fillCostRow = %v; want [1.5 1 0.5]", body, row)
		}
	})
}

// fuzzRowLen is the row length a fuzz input asks for: up to three mask
// words and a half.
func fuzzRowLen(n uint8) int { return int(n) % 231 }

func FuzzZeroMaskBodiesBitIdentical(f *testing.F) {
	f.Add(uint8(70), []byte{0, 8, 9, 10})
	f.Add(uint8(7), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) { checkZeroMask(t, fuzzRowLen(n), data) })
}

func FuzzRelaxBodiesBitIdentical(f *testing.F) {
	f.Add(uint8(70), []byte{8, 10, 3, 0xf0, 9, 8, 7})
	f.Add(uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) { checkRelax(t, fuzzRowLen(n), data) })
}

func FuzzArgminBodiesBitIdentical(f *testing.F) {
	f.Add(uint8(9), []byte{4, 4, 4, 2, 2})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		if n := fuzzRowLen(n); n > 0 {
			checkArgmin(t, n, data)
		}
	})
}

func FuzzLevelBodiesBitIdentical(f *testing.F) {
	f.Add(uint8(67), []byte{0xf9, 3, 3, 0xf1, 1})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) { checkLevel(t, fuzzRowLen(n), data) })
}

func FuzzCostRowBodiesBitIdentical(f *testing.F) {
	f.Add(uint8(13), []byte{1, 3, 1, 0, 2, 3, 1, 4, 0x80, 0x7f}, true)
	f.Fuzz(func(t *testing.T, n uint8, data []byte, structural bool) {
		checkCostRow(t, fuzzRowLen(n), data, structural)
	})
}
