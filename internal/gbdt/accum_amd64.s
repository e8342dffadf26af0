#include "textflag.h"

// func accumRows16(d []float64, rm []uint16, nf, lo, hi int, seg []int32, gh []float64)
//
// For each row r of seg and each entry b of rm[r*nf+lo : r*nf+hi]:
// (d[b], d[b+1]) += (gh[2r], gh[2r+1]) as one packed add, then
// d[b+2] += 1. The histogram is the destination operand of every add,
// as in the Go kernel, so even a NaN's payload comes out the same.
TEXT ·accumRows16(SB), NOSPLIT, $0-120
	MOVQ d_base+0(FP), DI
	MOVQ rm_base+24(FP), SI
	MOVQ nf+48(FP), R11
	MOVQ lo+56(FP), R12
	MOVQ hi+64(FP), R13
	MOVQ seg_base+72(FP), R8
	MOVQ seg_len+80(FP), R9
	MOVQ gh_base+96(FP), R10
	SUBQ R12, R13            // R13 = features in the window
	JLE  done
	TESTQ R9, R9
	JEQ  done
	MOVQ $0x3ff0000000000000, AX
	MOVQ AX, X3              // X3 = 1.0, the count's increment

row:
	MOVLQSX (R8), AX         // AX = r
	ADDQ $4, R8
	MOVQ AX, BX
	SHLQ $4, BX
	MOVUPD (R10)(BX*1), X0   // X0 = (gh[2r], gh[2r+1])
	IMULQ R11, AX
	ADDQ R12, AX
	LEAQ (SI)(AX*2), DX      // DX = &rm[r*nf+lo]
	MOVQ R13, CX

feature:
	MOVWQZX (DX), BX
	ADDQ $2, DX
	LEAQ (DI)(BX*8), BX      // BX = &d[b]
	MOVUPD (BX), X1
	ADDPD X0, X1
	MOVUPD X1, (BX)
	MOVSD 16(BX), X2
	ADDSD X3, X2
	MOVSD X2, 16(BX)
	DECQ CX
	JNE  feature
	DECQ R9
	JNE  row

done:
	RET
