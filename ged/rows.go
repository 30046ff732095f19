package ged

import (
	"math"
	"math/bits"

	"github.com/lansearch/lan/internal/mat"
)

// The assignment solvers' row work runs on the kernels below. Each has a
// vector body (AVX on amd64, rows_amd64.s) and a Go body, which is the
// oracle the vector one is held to and what every other architecture runs.
// A vector body runs four cells per instruction and the last one to three
// cells of a row under a lane mask, so it touches nothing past the row and
// the mask words the Go body writes. Its arithmetic is the Go body's, operation for operation
// and operand for operand — base + c then − v, never a fused or reordered
// form — and what it decides from a row, an order-free function of the
// row's cells, is the same set of columns (kernel by kernel below). Every
// cell being a multiple of ½, the sums are exact besides.
//
// The integer lanes (fillCostRow's label ids and degrees) are 128-bit
// VEX-encoded instructions, which AVX has; no kernel needs AVX2. No SSE
// encoding is mixed into the 256-bit code, which would stall on every
// transition between the two.

// vector is whether the kernels run their vector bodies: set once from
// internal/mat's check of the host (amd64, AVX, the YMM registers saved by
// the OS), cleared by tests to run the Go bodies.
var vector = mat.HasAVX()

// zeroMask sets the bits of mask over the columns j of the row where the
// reduced cost base + c[j] − v[j] is 0, and clears the others of its first
// ⌈len(c)/64⌉ words. It reports false when a cell of the row is below 0,
// leaving the mask unspecified.
func zeroMask(mask []uint64, c, v []float64, base float64) bool {
	n := len(c)
	if n == 0 {
		return true
	}
	mask, v = mask[:(n+63)/64], v[:n]
	if vector {
		return zeroMaskAVX(&mask[0], &c[0], &v[0], n, base)
	}
	return zeroMaskGo(mask, c, v, base)
}

// zeroMaskGo is zeroMask's portable body.
func zeroMaskGo(mask []uint64, c, v []float64, base float64) bool {
	clear(mask)
	for j, cj := range c {
		if d := base + cj - v[j]; d < 0 {
			return false
		} else if d == 0 {
			mask[j>>6] |= 1 << (j & 63)
		}
	}
	return true
}

// relax relaxes the row that enters augment's tree at base: each column j
// is offered base + c[j] − v[j], and where the offer is below dist[j] it
// becomes dist[j] and row i pred[j]. The first ⌈len(c)/64⌉ words of cand
// get the improved columns whose offer is not above level — the only ones
// joinLevel could put into the level set, which joinOffers does next.
func relax(dist []float64, pred []int32, c, v []float64, base float64, i int32, level float64, cand []uint64) {
	n := len(c)
	if n == 0 {
		return
	}
	dist, pred, v, cand = dist[:n], pred[:n], v[:n], cand[:(n+63)/64]
	if vector {
		relaxAVX(&dist[0], &pred[0], &c[0], &v[0], n, base, i, level, &cand[0])
		return
	}
	relaxGo(dist, pred, c, v, base, i, level, cand)
}

// relaxGo is relax's portable body.
func relaxGo(dist []float64, pred []int32, c, v []float64, base float64, i int32, level float64, cand []uint64) {
	clear(cand)
	for j, cj := range c {
		if d := base + cj - v[j]; d < dist[j] {
			dist[j], pred[j] = d, i
			if !(level < d) {
				cand[j>>6] |= 1 << (j & 63)
			}
		}
	}
}

// joinOffers runs joinLevel over the columns relax marked in cand, in
// order, and returns the level. That is joinLevel over the whole row in
// order: a column relax did not mark was not improved, or was offered more
// than the level, which only falls within a row, so joinLevel would pass
// it over.
func joinOffers(lvl, cand []uint64, dist []float64, level float64) float64 {
	for w, word := range cand {
		for ; word != 0; word &= word - 1 {
			j := w<<6 + bits.TrailingZeros64(word)
			if d := dist[j]; !(level < d) {
				level = joinLevel(lvl, j, d, level)
			}
		}
	}
	return level
}

// rowArgmin returns the lowest column j of the smallest offer 0 + c[j] −
// v[j] in the row, as a loop keeping the first strict minimum finds it, and
// that offer; (-1, +∞) for an empty row. The offers are finite.
func rowArgmin(c, v []float64) (int, float64) {
	n := len(c)
	if n == 0 {
		return -1, math.Inf(1)
	}
	v = v[:n]
	if vector {
		j := argminAVX(&c[0], &v[0], n)
		return j, 0 + c[j] - v[j]
	}
	return argminGo(c, v)
}

// argminGo is rowArgmin's portable body.
func argminGo(c, v []float64) (int, float64) {
	jm, dm := -1, math.Inf(1)
	for j, cj := range c {
		if d := 0 + cj - v[j]; d < dm {
			jm, dm = j, d
		}
	}
	return jm, dm
}

// levelSet returns the smallest distance among augment's unscanned columns
// — those whose dist is not −∞ — and sets lvl, whose ⌈len(dist)/64⌉ words
// it overwrites, to the columns at that distance: the set joinLevel builds
// from an empty one over the columns in order. With no unscanned column it
// returns +∞ and an empty set.
func levelSet(dist []float64, lvl []uint64) float64 {
	n := len(dist)
	if n == 0 {
		return math.Inf(1)
	}
	lvl = lvl[:(n+63)/64]
	if vector {
		return levelAVX(&dist[0], n, &lvl[0])
	}
	return levelGo(dist, lvl)
}

// levelGo is levelSet's portable body.
func levelGo(dist []float64, lvl []uint64) float64 {
	clear(lvl)
	level, ninf := math.Inf(1), math.Inf(-1)
	for j, d := range dist {
		if d > ninf && !(level < d) {
			level = joinLevel(lvl, j, d, level)
		}
	}
	return level
}

// fillCostRow writes one row of the substitution block: for the row's node,
// of label id la and degree da, against column j's node, of label lab[j]
// and degree deg[j], the label mismatch 0 or 1, plus |da − deg[j]|/2 when
// structural. The vector body multiplies by ½ or, without structural, by 0:
// the halving is exact on an integer, and a mismatch plus +0 is the
// mismatch.
func fillCostRow(row []float64, la, da int32, lab, deg []int32, structural bool) {
	n := len(row)
	if n == 0 {
		return
	}
	lab, deg = lab[:n], deg[:n]
	if vector {
		half := 0.0
		if structural {
			half = 0.5
		}
		costRowAVX(&row[0], &lab[0], &deg[0], n, la, da, half)
		return
	}
	costRowGo(row, la, da, lab, deg, structural)
}

// costRowGo is fillCostRow's portable body.
func costRowGo(row []float64, la, da int32, lab, deg []int32, structural bool) {
	for j, lb := range lab {
		v := 0.0
		if la != lb {
			v = 1
		}
		if structural {
			dd := da - deg[j]
			if dd < 0 {
				dd = -dd
			}
			v += float64(dd) / 2
		}
		row[j] = v
	}
}
