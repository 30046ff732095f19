package ged

// The vector bodies of the row kernels in rows.go, over n > 0 cells; the
// wrappers there have checked every operand's length. Masks are written
// whole words, ⌈n/64⌉ of them.

//go:noescape
func zeroMaskAVX(mask *uint64, c, v *float64, n int, base float64) bool

//go:noescape
func relaxAVX(dist *float64, pred *int32, c, v *float64, n int, base float64, i int32, level float64, cand *uint64)

//go:noescape
func argminAVX(c, v *float64, n int) int

//go:noescape
func levelAVX(dist *float64, n int, lvl *uint64) float64

//go:noescape
func costRowAVX(row *float64, lab, deg *int32, n int, la, da int32, half float64)

// childRowsAVX512 is childRows' vector body (children_amd64.s) over n one-word
// rows, 0 < n <= 64.
//
//go:noescape
func childRowsAVX512(f, cost, nbr *int32, mask *uint64, adj *uint64, lab, deg, tab *int32, n int, img, used uint64, base, gap, gl, bound int32)
