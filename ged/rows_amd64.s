#include "textflag.h"

// The row kernels' vector bodies (rows.go has their contracts and Go
// bodies). Four float64 cells go through one YMM register; a row's last
// one to three cells go through the same instructions as a partial block,
// loaded and stored under a lane mask (VMASKMOVPD reads and writes nothing
// outside it), with every result lane outside it discarded. Masks are built
// four bits at a time (VMOVMSKPD) in a register shifted into place by CX,
// and stored a whole word at a time. Only VEX-encoded instructions: an
// SSE-encoded one between 256-bit instructions stalls on the transition.

// tailMask's row r (32 bytes) has its first r of four float64 lanes set,
// tailMask32's row r (16 bytes) its first r of four int32 lanes.
DATA tailMask<>+0x00(SB)/8, $0
DATA tailMask<>+0x08(SB)/8, $0
DATA tailMask<>+0x10(SB)/8, $0
DATA tailMask<>+0x18(SB)/8, $0
DATA tailMask<>+0x20(SB)/8, $-1
DATA tailMask<>+0x28(SB)/8, $0
DATA tailMask<>+0x30(SB)/8, $0
DATA tailMask<>+0x38(SB)/8, $0
DATA tailMask<>+0x40(SB)/8, $-1
DATA tailMask<>+0x48(SB)/8, $-1
DATA tailMask<>+0x50(SB)/8, $0
DATA tailMask<>+0x58(SB)/8, $0
DATA tailMask<>+0x60(SB)/8, $-1
DATA tailMask<>+0x68(SB)/8, $-1
DATA tailMask<>+0x70(SB)/8, $-1
DATA tailMask<>+0x78(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $128

DATA tailMask32<>+0x00(SB)/8, $0
DATA tailMask32<>+0x08(SB)/8, $0
DATA tailMask32<>+0x10(SB)/8, $0x00000000ffffffff
DATA tailMask32<>+0x18(SB)/8, $0
DATA tailMask32<>+0x20(SB)/8, $-1
DATA tailMask32<>+0x28(SB)/8, $0
DATA tailMask32<>+0x30(SB)/8, $-1
DATA tailMask32<>+0x38(SB)/8, $0x00000000ffffffff
GLOBL tailMask32<>(SB), RODATA|NOPTR, $64

DATA posInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL posInf<>(SB), RODATA|NOPTR, $8

DATA negInf<>+0(SB)/8, $0xfff0000000000000
GLOBL negInf<>(SB), RODATA|NOPTR, $8

// TAILMASK(r, t) loads into Y15 the lane mask of row r (1 to 3) of
// tailMask; it clobbers r and t.
#define TAILMASK(r, t) \
	LEAQ tailMask<>(SB), t; \
	SHLQ $5, r; \
	VMOVUPD (t)(r*1), Y15

// PUTBITS ors the four lane bits of mask register m into the word being
// built in R8 at bit CX, and stores the word to (w) when it is full.
#define PUTBITS(m, w, next) \
	VMOVMSKPD m, AX; \
	SHLQ CX, AX; \
	ORQ  AX, R8; \
	ADDQ $4, CX; \
	CMPQ CX, $64; \
	JLT  next; \
	MOVQ R8, (w); \
	ADDQ $8, w; \
	XORQ R8, R8; \
	XORQ CX, CX

// HMIN leaves in every lane of Y3 the smallest of its four.
#define HMIN \
	VPERM2F128 $1, Y3, Y3, Y4; \
	VMINPD     Y4, Y3, Y3; \
	VPERMILPD  $5, Y3, Y4; \
	VMINPD     Y4, Y3, Y3

// func zeroMaskAVX(mask *uint64, c, v *float64, n int, base float64) bool
//
// d = (base + c) − v per lane, as the Go body computes it; the row fails
// on any lane with d < 0, and the mask takes the lanes with d == 0.
TEXT ·zeroMaskAVX(SB), NOSPLIT, $0-41
	MOVQ mask+0(FP), DI
	MOVQ c+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ n+24(FP), BX
	VBROADCASTSD base+32(FP), Y0
	VXORPD Y1, Y1, Y1
	XORQ   R8, R8
	XORQ   CX, CX

zblock:
	CMPQ BX, $4
	JLT  ztail
	VMOVUPD (SI), Y2
	VADDPD  Y2, Y0, Y2
	VSUBPD  (DX), Y2, Y2
	VCMPPD  $0x11, Y1, Y2, Y3 // d < 0
	VMOVMSKPD Y3, AX
	TESTQ   AX, AX
	JNZ     zfail
	VCMPPD  $0x00, Y1, Y2, Y3 // d == 0
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, BX
	PUTBITS(Y3, DI, zblock)
	JMP     zblock

ztail:
	TESTQ BX, BX
	JZ    zflush
	TAILMASK(BX, R10)
	VMASKMOVPD (SI), Y15, Y2
	VADDPD     Y2, Y0, Y2
	VMASKMOVPD (DX), Y15, Y4
	VSUBPD     Y4, Y2, Y2
	VCMPPD     $0x11, Y1, Y2, Y3
	VANDPD     Y15, Y3, Y3
	VMOVMSKPD  Y3, AX
	TESTQ      AX, AX
	JNZ        zfail
	VCMPPD     $0x00, Y1, Y2, Y3
	VANDPD     Y15, Y3, Y3
	VMOVMSKPD  Y3, AX
	SHLQ       CX, AX
	ORQ        AX, R8
	ADDQ       $4, CX

zflush:
	TESTQ CX, CX
	JZ    zok
	MOVQ  R8, (DI)

zok:
	VZEROUPPER
	MOVB $1, ret+40(FP)
	RET

zfail:
	VZEROUPPER
	MOVB $0, ret+40(FP)
	RET

// RELAX takes the offers in Y5, dist in Y6 and the improved lanes in Y7
// (offer < dist): dist takes the blend of the two and pred that of i and
// its old lanes (the int32 form of Y7 is the low half of each lane: VSHUFPS
// picks dwords 0 and 2 of either half), both stored whole, so that the
// next load of them forwards from the store; and the improved lanes at or
// below the level (Y2) go to the candidate word. RELAXTAIL is RELAX for
// the row's last one to three cells, storing under Y7 alone.
#define RELAX(next) \
	VBLENDVPD    Y7, Y5, Y6, Y6; \
	VMOVUPD      Y6, (DI); \
	VEXTRACTF128 $1, Y7, X8; \
	VSHUFPS      $0x88, X8, X7, X8; \
	VMOVDQU      (SI), X9; \
	VBLENDVPS    X8, X1, X9, X9; \
	VMOVDQU      X9, (SI); \
	VCMPPD       $0x12, Y2, Y5, Y9; \
	VANDPD       Y7, Y9, Y9; \
	PUTBITS(Y9, R11, next)

#define RELAXTAIL(next) \
	VMASKMOVPD   Y5, Y7, (DI); \
	VEXTRACTF128 $1, Y7, X8; \
	VSHUFPS      $0x88, X8, X7, X8; \
	VMASKMOVPS   X1, X8, (SI); \
	VCMPPD       $0x12, Y2, Y5, Y9; \
	VANDPD       Y7, Y9, Y9; \
	PUTBITS(Y9, R11, next)

// func relaxAVX(dist *float64, pred *int32, c, v *float64, n int, base float64, i int32, level float64, cand *uint64)
//
// The offer is (base + c) − v, as the Go body computes it.
TEXT ·relaxAVX(SB), NOSPLIT, $0-72
	MOVQ dist+0(FP), DI
	MOVQ pred+8(FP), SI
	MOVQ c+16(FP), DX
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), BX
	VBROADCASTSD base+40(FP), Y0
	VBROADCASTSS i+48(FP), X1
	VBROADCASTSD level+56(FP), Y2
	MOVQ cand+64(FP), R11
	XORQ R8, R8
	XORQ CX, CX

rblock:
	CMPQ BX, $4
	JLT  rtail
	VMOVUPD (DX), Y5
	VADDPD  Y5, Y0, Y5
	VSUBPD  (R9), Y5, Y5
	VMOVUPD (DI), Y6
	VCMPPD  $0x11, Y6, Y5, Y7 // offer < dist
	ADDQ    $32, DX
	ADDQ    $32, R9
	RELAX(rnext)

rnext:
	ADDQ $32, DI
	ADDQ $16, SI
	SUBQ $4, BX
	JMP  rblock

rtail:
	TESTQ BX, BX
	JZ    rdone
	TAILMASK(BX, R10)
	VMASKMOVPD (DX), Y15, Y5
	VADDPD     Y5, Y0, Y5
	VMASKMOVPD (R9), Y15, Y4
	VSUBPD     Y4, Y5, Y5
	VMASKMOVPD (DI), Y15, Y6
	VCMPPD     $0x11, Y6, Y5, Y7
	VANDPD     Y15, Y7, Y7
	RELAXTAIL(rdone)

rdone:
	TESTQ CX, CX
	JZ    rret
	MOVQ  R8, (R11)

rret:
	VZEROUPPER
	RET

// func argminAVX(c, v *float64, n int) int
//
// Two passes over the offers (0 + c) − v: their minimum, then the first
// lane equal to it.
TEXT ·argminAVX(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), SI
	MOVQ v+8(FP), DX
	MOVQ n+16(FP), BX
	VXORPD Y0, Y0, Y0
	VBROADCASTSD posInf<>(SB), Y14
	VMOVAPD Y14, Y3
	MOVQ    BX, R12
	ANDQ    $3, R12
	TAILMASK(R12, R10)
	MOVQ    SI, R8
	MOVQ    DX, R9
	MOVQ    BX, R11

amin:
	CMPQ R11, $4
	JLT  amintail
	VMOVUPD (R8), Y5
	VADDPD  Y5, Y0, Y5
	VSUBPD  (R9), Y5, Y5
	VMINPD  Y5, Y3, Y3
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $4, R11
	JMP     amin

amintail:
	TESTQ R11, R11
	JZ    areduce
	VMASKMOVPD (R8), Y15, Y5
	VADDPD     Y5, Y0, Y5
	VMASKMOVPD (R9), Y15, Y4
	VSUBPD     Y4, Y5, Y5
	VBLENDVPD  Y15, Y5, Y14, Y5
	VMINPD     Y5, Y3, Y3

areduce:
	HMIN
	XORQ AX, AX

afind:
	CMPQ BX, $4
	JLT  aftail
	VMOVUPD (SI), Y5
	VADDPD  Y5, Y0, Y5
	VSUBPD  (DX), Y5, Y5
	VCMPPD  $0x00, Y3, Y5, Y6
	VMOVMSKPD Y6, R12
	TESTQ   R12, R12
	JNZ     afound
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, BX
	ADDQ    $4, AX
	JMP     afind

aftail:
	VMASKMOVPD (SI), Y15, Y5
	VADDPD     Y5, Y0, Y5
	VMASKMOVPD (DX), Y15, Y4
	VSUBPD     Y4, Y5, Y5
	VCMPPD     $0x00, Y3, Y5, Y6
	VANDPD     Y15, Y6, Y6
	VMOVMSKPD  Y6, R12

afound:
	BSFQ R12, R12
	ADDQ R12, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func levelAVX(dist *float64, n int, lvl *uint64) float64
//
// Two passes: the minimum over the lanes that are not −∞ (scanned), then
// the mask of the lanes equal to it, which a −∞ lane never is.
TEXT ·levelAVX(SB), NOSPLIT, $0-32
	MOVQ dist+0(FP), SI
	MOVQ n+8(FP), BX
	MOVQ lvl+16(FP), DI
	VBROADCASTSD posInf<>(SB), Y14
	VBROADCASTSD negInf<>(SB), Y13
	VMOVAPD Y14, Y3
	MOVQ    BX, R12
	ANDQ    $3, R12
	TAILMASK(R12, R10)
	MOVQ    SI, R9
	MOVQ    BX, R11

lmin:
	CMPQ R11, $4
	JLT  lmintail
	VMOVUPD   (R9), Y5
	VCMPPD    $0x00, Y13, Y5, Y6
	VBLENDVPD Y6, Y14, Y5, Y5
	VMINPD    Y5, Y3, Y3
	ADDQ      $32, R9
	SUBQ      $4, R11
	JMP       lmin

lmintail:
	TESTQ R11, R11
	JZ    lreduce
	VMASKMOVPD (R9), Y15, Y5
	VCMPPD     $0x00, Y13, Y5, Y6
	VBLENDVPD  Y6, Y14, Y5, Y5
	VBLENDVPD  Y15, Y5, Y14, Y5
	VMINPD     Y5, Y3, Y3

lreduce:
	HMIN
	XORQ R8, R8
	XORQ CX, CX

lmask:
	CMPQ BX, $4
	JLT  lmasktail
	VCMPPD $0x00, (SI), Y3, Y6
	ADDQ   $32, SI
	SUBQ   $4, BX
	PUTBITS(Y6, DI, lmask)
	JMP    lmask

lmasktail:
	TESTQ BX, BX
	JZ    lflush
	VMASKMOVPD (SI), Y15, Y5
	VCMPPD     $0x00, Y5, Y3, Y6
	VANDPD     Y15, Y6, Y6
	VMOVMSKPD  Y6, AX
	SHLQ       CX, AX
	ORQ        AX, R8
	ADDQ       $4, CX

lflush:
	TESTQ CX, CX
	JZ    ldone
	MOVQ  R8, (DI)

ldone:
	VMOVSD X3, ret+24(FP)
	VZEROUPPER
	RET

// COSTROW turns label ids X4 and degrees X5 (four int32 lanes each) into
// four cells in Y4: the mismatch (label compare −1 or 0, plus the ones in
// X3) converted, plus |da − deg| converted and times the half in Y2.
#define COSTROW \
	VPCMPEQD  X4, X0, X4; \
	VPADDD    X3, X4, X4; \
	VCVTDQ2PD X4, Y4; \
	VPSUBD    X5, X1, X5; \
	VPABSD    X5, X5; \
	VCVTDQ2PD X5, Y5; \
	VMULPD    Y2, Y5, Y5; \
	VADDPD    Y5, Y4, Y4

// func costRowAVX(row *float64, lab, deg *int32, n int, la, da int32, half float64)
TEXT ·costRowAVX(SB), NOSPLIT, $0-48
	MOVQ row+0(FP), DI
	MOVQ lab+8(FP), SI
	MOVQ deg+16(FP), DX
	MOVQ n+24(FP), BX
	VBROADCASTSS la+32(FP), X0
	VBROADCASTSS da+36(FP), X1
	VBROADCASTSD half+40(FP), Y2
	VPCMPEQD X3, X3, X3
	VPSRLD   $31, X3, X3

cblock:
	CMPQ BX, $4
	JLT  ctail
	VMOVDQU (SI), X4
	VMOVDQU (DX), X5
	COSTROW
	VMOVUPD Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $16, SI
	ADDQ    $16, DX
	SUBQ    $4, BX
	JMP     cblock

ctail:
	TESTQ BX, BX
	JZ    cdone
	LEAQ  tailMask32<>(SB), R10
	MOVQ  BX, R12
	SHLQ  $4, R12
	VMOVDQU (R10)(R12*1), X14
	TAILMASK(BX, R10)
	VMASKMOVPS (SI), X14, X4
	VMASKMOVPS (DX), X14, X5
	COSTROW
	VMASKMOVPD Y4, Y15, (DI)

cdone:
	VZEROUPPER
	RET
