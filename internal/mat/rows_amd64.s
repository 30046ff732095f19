#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func addRowsScaledAVX(dst, x, w *float64, cols, rows, stride int)
//
// Columns go in blocks of 16 (four YMM accumulators), then of 4. A
// block's accumulators are loaded from dst, take one term per row of w in
// ascending row order — VBROADCASTSD x[i], VMULPD into the row's four
// lanes, VADDPD into the accumulator — and are stored back. No FMA: the
// product is rounded before it is added, as the Go body rounds it. The
// operands go in the order the Go compiler gives the body's d += a*b
// (w·a, then product + d), so that even a NaN input's payload comes out
// the same.
TEXT ·addRowsScaledAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ cols+24(FP), CX
	MOVQ rows+32(FP), R8
	MOVQ stride+40(FP), R9
	SHLQ $3, R9

block16:
	CMPQ CX, $16
	JLT  block4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12

rows16:
	VBROADCASTSD (R10), Y4
	VMOVUPD 0(R11), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y0, Y5, Y0
	VMOVUPD 32(R11), Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  Y1, Y6, Y1
	VMOVUPD 64(R11), Y7
	VMULPD  Y4, Y7, Y7
	VADDPD  Y2, Y7, Y2
	VMOVUPD 96(R11), Y8
	VMULPD  Y4, Y8, Y8
	VADDPD  Y3, Y8, Y3
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ R12
	JNZ  rows16

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  block16

block4:
	TESTQ CX, CX
	JZ    done
	VMOVUPD (DI), Y0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12

rows4:
	VBROADCASTSD (R10), Y4
	VMOVUPD (R11), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y0, Y5, Y0
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ R12
	JNZ  rows4

	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  block4

done:
	VZEROUPPER
	RET
