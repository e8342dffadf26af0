//go:build !amd64

package gbdt

// accumRows16 is the Go kernel off amd64.
func accumRows16(d []float64, rm []uint16, nf, lo, hi int, seg []int32, gh []float64) {
	accumRowsGo(d, rm, nf, lo, hi, seg, gh)
}
