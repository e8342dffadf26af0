package gbdt

// accumRows16 is accumRowsGo on the uint16 matrix in SSE2
// (accum_amd64.s): per row one MOVUPD load of its (gradient, hessian)
// pair, then per feature of the window one MOVUPD/ADDPD/MOVUPD on the
// bin's pair and one ADDSD of 1.0 on its count. It indexes unchecked;
// call it through accumRows.
//
//go:noescape
func accumRows16(d []float64, rm []uint16, nf, lo, hi int, seg []int32, gh []float64)
