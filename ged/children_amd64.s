#include "textflag.h"

// func childRowsAVX512(f, cost, nbr *int32, mask *uint64, adj *uint64, lab, deg, tab *int32, n int, img, used uint64, base, gap, gl, bound int32)
//
// childRows' vector body (children.go has the contract and the Go body)
// over n one-word rows, 0 < n <= 64, at a depth before the last. Eight
// rows go through each instruction: their adjacency words in one ZMM
// register, AND img and AND used, VPOPCNTQ; the two counts narrowed to
// dwords (VPMOVQD) and everything after in YMM dword lanes, as the Go
// body's int32 arithmetic, exact and wrapping alike. A last block of one
// to seven rows runs under the lane mask K1 (loads zero the lanes outside
// it, stores and the gather leave them alone), so nothing past row n is
// read or written. The f < bound lanes are put into the mask word eight
// bits at a time, and the word, cleared at the used rows and past row n,
// is stored whole at the end.
TEXT ·childRowsAVX512(SB), NOSPLIT, $0-104
	MOVQ f+0(FP), DI
	MOVQ cost+8(FP), SI
	MOVQ nbr+16(FP), DX
	MOVQ adj+32(FP), R8
	MOVQ lab+40(FP), R9
	MOVQ deg+48(FP), R10
	MOVQ tab+56(FP), R11
	MOVQ n+64(FP), BX
	VPBROADCASTQ img+72(FP), Z0
	VPBROADCASTQ used+80(FP), Z1
	MOVL base+88(FP), AX
	INCL AX // a label mismatch adds 1: the lanes add base+1, less 1 where the labels match
	VMOVD AX, X2
	VPBROADCASTD X2, Y2
	MOVL gap+92(FP), AX
	VMOVD AX, X3
	VPBROADCASTD X3, Y3
	MOVL gl+96(FP), AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	MOVL bound+100(FP), AX
	VMOVD AX, X5
	VPBROADCASTD X5, Y5
	XORQ R12, R12 // the mask word
	XORQ CX, CX   // the block's first row

block:
	MOVQ BX, AX
	SUBQ CX, AX
	MOVL $0xff, R13
	CMPQ AX, $8
	JAE  lanes
	MOVQ CX, R14
	MOVQ AX, CX
	MOVL $1, R13
	SHLL CX, R13
	DECL R13
	MOVQ R14, CX

lanes:
	KMOVW R13, K1
	VMOVDQU64.Z (R8), K1, Z6
	VPANDQ      Z0, Z6, Z7
	VPOPCNTQ    Z7, Z7
	VPANDQ      Z1, Z6, Z8
	VPOPCNTQ    Z8, Z8
	VPMOVQD     Z7, Y7 // matched
	VPMOVQD     Z8, Y8 // nbr
	VMOVDQU32.Z (R9), K1, Y9  // labels
	VMOVDQU32.Z (R10), K1, Y10 // degrees
	KMOVW       K1, K2        // the gather clears its mask
	VPXORD      Y11, Y11, Y11
	VPGATHERDD  (R11)(Y9*4), K2, Y11 // tab[label]

	// cost = base + nbr − 2·matched + [label ≠ gl]
	VPADDD   Y8, Y2, Y12
	VPSUBD   Y7, Y12, Y12
	VPSUBD   Y7, Y12, Y12
	VPCMPEQD Y4, Y9, Y13
	VPADDD   Y13, Y12, Y12

	// f = cost + tab[label] + |gap + deg − nbr|
	VPADDD Y10, Y3, Y14
	VPSUBD Y8, Y14, Y14
	VPABSD Y14, Y14
	VPADDD Y11, Y12, Y15
	VPADDD Y14, Y15, Y15

	VMOVDQU32 Y15, K1, (DI)
	VMOVDQU32 Y12, K1, (SI)
	VMOVDQU32 Y8, K1, (DX)
	VPCMPD    $1, Y5, Y15, K1, K3 // f < bound
	KMOVW     K3, AX
	SHLQ      CX, AX
	ORQ       AX, R12

	ADDQ $64, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $8, CX
	CMPQ CX, BX
	JLT  block

	MOVQ used+80(FP), AX
	NOTQ AX
	ANDQ AX, R12
	CMPQ BX, $64
	JAE  store
	MOVQ BX, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	ANDQ AX, R12

store:
	MOVQ mask+24(FP), AX
	MOVQ R12, (AX)
	VZEROUPPER
	RET
