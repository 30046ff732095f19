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

// func gatherRowsAVX(dst *float64, terms *Term, n int, src *float64, cols, stride int)
//
// addRowsScaledAVX's loop with two changes: the accumulators start at +0
// instead of dst's values, and each term names its row (Term.Row at
// offset 0, Term.W at 8) instead of taking the next one. Same operand
// order: row·W, then product + accumulator.
TEXT ·gatherRowsAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ terms+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ src+24(FP), DX
	MOVQ cols+32(FP), CX
	MOVQ stride+40(FP), R9
	SHLQ $3, R9

gblock16:
	CMPQ CX, $16
	JLT  gblock4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R10
	MOVQ R8, R12

gterms16:
	MOVQ  0(R10), R11
	IMULQ R9, R11
	ADDQ  DX, R11
	VBROADCASTSD 8(R10), Y4
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
	ADDQ $16, R10
	DECQ R12
	JNZ  gterms16

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  gblock16

gblock4:
	TESTQ CX, CX
	JZ    gdone
	VXORPD Y0, Y0, Y0
	MOVQ SI, R10
	MOVQ R8, R12

gterms4:
	MOVQ  0(R10), R11
	IMULQ R9, R11
	ADDQ  DX, R11
	VBROADCASTSD 8(R10), Y4
	VMOVUPD (R11), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y0, Y5, Y0
	ADDQ $16, R10
	DECQ R12
	JNZ  gterms4

	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  gblock4

gdone:
	VZEROUPPER
	RET

// func mulRowsReLUAVX(out, x *float64, rows, din int, w *float64, cols, stride int)
//
// Column blocks of 16 (four accumulators), then of 4; within a block,
// row by row of x. Each row's accumulators start at +0 and take, for k
// ascending, x[k]·w's row k (w·x, then product + accumulator, as in
// addRowsScaledAVX) unless x[k] is ±0 — its bits shifted left past the
// sign are zero; a NaN's are not, so it is kept. The block is stored
// through VMAXPD with +0 as the first source, which gives (0 > v) ? 0 : v:
// a negative v becomes +0, NaN and −0 pass, as the Go body's v < 0 test.
TEXT ·mulRowsReLUAVX(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ din+24(FP), R13
	SHLQ $3, R13
	MOVQ w+32(FP), DX
	MOVQ cols+40(FP), CX
	MOVQ stride+48(FP), R9
	SHLQ $3, R9
	VXORPD Y15, Y15, Y15

mblock16:
	CMPQ CX, $16
	JLT  mblock4
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ DI, BX

mrows16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R10
	LEAQ (SI)(R13*1), R12
	MOVQ DX, R11

mk16:
	MOVQ (R10), AX
	SHLQ $1, AX
	JZ   mskip16
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

mskip16:
	ADDQ $8, R10
	ADDQ R9, R11
	CMPQ R10, R12
	JB   mk16

	VMAXPD  Y0, Y15, Y0
	VMAXPD  Y1, Y15, Y1
	VMAXPD  Y2, Y15, Y2
	VMAXPD  Y3, Y15, Y3
	VMOVUPD Y0, 0(BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	MOVQ R12, SI
	ADDQ R9, BX
	DECQ R8
	JNZ  mrows16

	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  mblock16

mblock4:
	TESTQ CX, CX
	JZ    mdone
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ DI, BX

mrows4:
	VXORPD Y0, Y0, Y0
	MOVQ SI, R10
	LEAQ (SI)(R13*1), R12
	MOVQ DX, R11

mk4:
	MOVQ (R10), AX
	SHLQ $1, AX
	JZ   mskip4
	VBROADCASTSD (R10), Y4
	VMOVUPD (R11), Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  Y0, Y5, Y0

mskip4:
	ADDQ $8, R10
	ADDQ R9, R11
	CMPQ R10, R12
	JB   mk4

	VMAXPD  Y0, Y15, Y0
	VMOVUPD Y0, (BX)
	MOVQ R12, SI
	ADDQ R9, BX
	DECQ R8
	JNZ  mrows4

	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  mblock4

mdone:
	VZEROUPPER
	RET

// func addOuterAVX(dst, x, y *float64, rows, m, cols, stride int)
//
// For each row pair k, for each i whose x[k·m+i] is not ±0 (its bits
// shifted left past the sign are not zero; a NaN's are not, so it is
// kept), row i of dst takes x[k·m+i] times row k of y, in column blocks of
// 16 (four YMM registers), then of 4: each block loaded from dst, y's
// lanes times the broadcast entry, product + dst, stored back. Same
// operand order as addRowsScaledAVX (y·a, then product + dst), the order
// the compiled Go body gives dst[j] += a*b, so that even a NaN's payload
// comes out the same. x is read in order: row k's entries follow row
// k-1's.
TEXT ·addOuterAVX(SB), NOSPLIT, $0-56
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ stride+48(FP), R9
	SHLQ $3, R9

opairs:
	MOVQ dst+0(FP), R10
	MOVQ m+32(FP), R12

orows:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   oskip
	VBROADCASTSD (SI), Y4
	MOVQ DX, R11
	MOVQ R10, BX
	MOVQ cols+40(FP), CX

oblock16:
	CMPQ CX, $16
	JLT  oblock4
	VMOVUPD 0(R11), Y5
	VMULPD  Y4, Y5, Y5
	VMOVUPD 0(BX), Y0
	VADDPD  Y0, Y5, Y0
	VMOVUPD Y0, 0(BX)
	VMOVUPD 32(R11), Y6
	VMULPD  Y4, Y6, Y6
	VMOVUPD 32(BX), Y1
	VADDPD  Y1, Y6, Y1
	VMOVUPD Y1, 32(BX)
	VMOVUPD 64(R11), Y7
	VMULPD  Y4, Y7, Y7
	VMOVUPD 64(BX), Y2
	VADDPD  Y2, Y7, Y2
	VMOVUPD Y2, 64(BX)
	VMOVUPD 96(R11), Y8
	VMULPD  Y4, Y8, Y8
	VMOVUPD 96(BX), Y3
	VADDPD  Y3, Y8, Y3
	VMOVUPD Y3, 96(BX)
	ADDQ $128, R11
	ADDQ $128, BX
	SUBQ $16, CX
	JMP  oblock16

oblock4:
	TESTQ CX, CX
	JZ    oskip
	VMOVUPD (R11), Y5
	VMULPD  Y4, Y5, Y5
	VMOVUPD (BX), Y0
	VADDPD  Y0, Y5, Y0
	VMOVUPD Y0, (BX)
	ADDQ $32, R11
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  oblock4

oskip:
	ADDQ $8, SI
	ADDQ R9, R10
	DECQ R12
	JNZ  orows

	ADDQ R9, DX
	DECQ R8
	JNZ  opairs

	VZEROUPPER
	RET

DATA adamAbs<>+0(SB)/8, $0x7fffffffffffffff
GLOBL adamAbs<>(SB), RODATA|NOPTR, $8
DATA adamMinNormal<>+0(SB)/8, $0x0010000000000000
GLOBL adamMinNormal<>(SB), RODATA|NOPTR, $8

// func adamStepAVX(w, m, v, grad *float64, n int, a *Adam)
//
// Four elements per pass, each operation the one the Go body compiles to,
// with its sources in the compiled order — Beta1·m, C1·g, (C1·g) +
// (Beta1·m); Beta2·v, (C2·g)·g, ((C2·g)·g) + (Beta2·v); m/BC1, v/BC2,
// √, √ + Eps, quotient, quotient·LR, w − that — so that even a NaN's
// payload comes out the same. The flushes compare |m| and v with the
// smallest normal float64 (ordered, so a NaN stays) and clear the lanes
// below it to +0. The Adam fields sit at 8-byte offsets: Beta1, Beta2,
// C1, C2, BC1, BC2, LR, Eps.
TEXT ·adamStepAVX(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), R8
	MOVQ n+32(FP), CX
	MOVQ a+40(FP), AX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
	VBROADCASTSD adamMinNormal<>(SB), Y6
	VBROADCASTSD adamAbs<>(SB), Y7

adam4:
	VMOVUPD (R8), Y0
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y8, Y1
	VMULPD  Y0, Y10, Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD (DX), Y3
	VMULPD  Y3, Y9, Y3
	VMULPD  Y0, Y11, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y3, Y4, Y4
	VDIVPD  Y13, Y4, Y3
	VDIVPD  Y12, Y2, Y1
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3
	VDIVPD  Y3, Y1, Y1
	VMULPD  Y14, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	VANDPD  Y7, Y2, Y0
	VCMPPD  $0x11, Y6, Y0, Y0
	VANDNPD Y2, Y0, Y2
	VMOVUPD Y2, (SI)
	VCMPPD  $0x11, Y6, Y4, Y0
	VANDNPD Y4, Y0, Y4
	VMOVUPD Y4, (DX)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R8
	SUBQ $4, CX
	JNZ  adam4

	VZEROUPPER
	RET
