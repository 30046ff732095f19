//go:build !amd64

package ged

import "unsafe"

// Off amd64 vector is false and the wrappers in rows.go run their Go
// bodies; these entry points, which they never reach, run the same bodies.

func zeroMaskAVX(mask *uint64, c, v *float64, n int, base float64) bool {
	return zeroMaskGo(unsafe.Slice(mask, (n+63)/64), unsafe.Slice(c, n), unsafe.Slice(v, n), base)
}

func relaxAVX(dist *float64, pred *int32, c, v *float64, n int, base float64, i int32, level float64, cand *uint64) {
	relaxGo(unsafe.Slice(dist, n), unsafe.Slice(pred, n), unsafe.Slice(c, n), unsafe.Slice(v, n), base, i, level, unsafe.Slice(cand, (n+63)/64))
}

func argminAVX(c, v *float64, n int) int {
	j, _ := argminGo(unsafe.Slice(c, n), unsafe.Slice(v, n))
	return j
}

func levelAVX(dist *float64, n int, lvl *uint64) float64 {
	return levelGo(unsafe.Slice(dist, n), unsafe.Slice(lvl, (n+63)/64))
}

func costRowAVX(row *float64, lab, deg *int32, n int, la, da int32, half float64) {
	costRowGo(unsafe.Slice(row, n), la, da, unsafe.Slice(lab, n), unsafe.Slice(deg, n), half != 0)
}
