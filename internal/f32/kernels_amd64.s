//go:build amd64

#include "textflag.h"

// SSE2 bodies of SGSlotDistinct, MeanPoolInto and Centers.Nearest. The first
// two compute the arithmetic of sgSlotDistinctGo and meanPoolIntoGo (f32.go)
// bit for bit: one XMM register is the four accumulators of the lane
// contract, every a*b+c is MULPS then ADDPS (two roundings, as the Go
// compiler emits on amd64), MXCSR is left alone. Loads and stores are MOVUPS
// throughout: rows are 4-byte aligned, not 16. The third, sqDistPairsSSE2 at
// the end of the file, is SqDist for two centres per register. There are no
// bounds checks here; kernels_amd64.go makes them before it calls in.

// Sigmoid32's constants as float32 bits. TestSSE2SigmoidConstants holds them
// to sigMax, sigScale and sigTableSize.
DATA sgk<>+0(SB)/4, $0x40c00000 // sigMax
DATA sgk<>+4(SB)/4, $0xc0c00000 // -sigMax
DATA sgk<>+8(SB)/4, $0x42aaaaab // sigScale = 1024/12
DATA sgk<>+12(SB)/4, $0x447fc000 // sigTableSize-1
DATA sgk<>+16(SB)/4, $0x3f800000 // 1: the positive target's label
DATA sgk<>+20(SB)/4, $0x00000000 // 0: a negative target's label
GLOBL sgk<>(SB), RODATA|NOPTR, $24

#define SIGMAX sgk<>+0(SB)
#define NEGSIGMAX sgk<>+4(SB)
#define SIGSCALE sgk<>+8(SB)
#define SIGLAST sgk<>+12(SB)
#define ONE sgk<>+16(SB)
#define ZERO sgk<>+20(SB)

// SGDOT adds one 4-float block of cv (X8) times target row P into the
// target's accumulator S: lane i of the block feeds lane i, in block order.
#define SGDOT(P, S) \
	MOVUPS (P)(CX*1), X9 \
	MULPS  X8, X9        \
	ADDPS  X9, S

// SGGRAD turns target K's lane sums in X into its gradient scale, broadcast
// to all four lanes of X, and sets bit K of CX when the target is unsaturated.
//
// dot = ((s0+s1)+(s2+s3))+t with t the scalar tail, +0 here (X15).
// s = Sigmoid32(dot): i = int((dot+sigMax)*sigScale) with i < 0 read as 0 and
// i > sigTableSize-1 as sigTableSize-1. The clamp is done on the float, where
// MAXSS returns its source (+0) for a NaN, which is the Go body's "NaN
// converts to a negative int, use sigTable[0]". Then the two saturation
// compares overrule the table: dot <= -sigMax gives 0, dot >= sigMax gives 1
// (both false for a NaN).
// g = (LABEL - s) * lr; the target is unsaturated when g != 0, NaN included
// (CMPSS predicate 4 is "not equal or unordered").
// DI is &sigTable, SI scratch.
#define SGGRAD(X, K, LABEL) \
	MOVAPS    X, X10               \
	SHUFPS    $0xB1, X10, X10      \
	ADDPS     X10, X               \
	MOVHLPS   X, X10               \
	ADDSS     X10, X               \
	ADDSS     X15, X               \
	MOVAPS    X, X10               \
	ADDSS     SIGMAX, X10          \
	MULSS     SIGSCALE, X10        \
	MAXSS     X15, X10             \
	MINSS     SIGLAST, X10         \
	CVTTSS2SL X10, SI              \
	MOVSS     (DI)(SI*4), X11      \
	MOVAPS    X, X10               \
	CMPSS     NEGSIGMAX, X10, $2   \
	ANDNPS    X11, X10             \
	MOVSS     SIGMAX, X11          \
	CMPSS     X, X11, $2           \
	MOVSS     ONE, X12             \
	ANDPS     X11, X12             \
	ANDNPS    X10, X11             \
	ORPS      X12, X11             \
	MOVSS     LABEL, X             \
	SUBSS     X11, X               \
	MULSS     lr+0(FP), X          \
	MOVAPS    X, X10               \
	CMPSS     X15, X10, $4         \
	MOVMSKPS  X10, SI              \
	ANDL      $1, SI               \
	SHLL      $K, SI               \
	ORL       SI, CX               \
	SHUFPS    $0, X, X

// SGUPD applies target row P's update to one 4-float block when its bit is
// set in CX: grad (X9) += g*t, then t + g*c is stored, t being the row's
// block as loaded, c the center's block (X8) and G the broadcast g.
#define SGUPD(G, P, BIT, SKIP) \
	TESTL  $BIT, CX        \
	JZ     SKIP            \
	MOVUPS (P)(AX*1), X10  \
	MOVAPS X10, X11        \
	MULPS  G, X11          \
	ADDPS  X11, X9         \
	MOVAPS X8, X11         \
	MULPS  G, X11          \
	ADDPS  X10, X11        \
	MOVUPS X11, (P)(AX*1)  \
SKIP:

// func sgSlotSSE2(lr float32, cv, grad []float32, tvs [][]float32)
//
// Three phases, as in the Go body: every target's dot with cv, every
// target's gradient scale, then the updates. Both loops over the row run
// block-outer, target-inner, so a block of cv (and of grad) is loaded once
// and stays in a register across the targets; per lane the operations and
// their order are the Go body's, which walks target-outer.
//
// Target k's row pointer lives in R8..R14, BX and its accumulator, later
// its broadcast g, in X0..X7. Pointers are kept past the end of each row and
// indexed by a negative byte offset that counts up to zero.
TEXT ·sgSlotSSE2(SB), NOSPLIT, $0-80
	MOVQ cv_base+8(FP), SI
	MOVQ cv_len+16(FP), AX
	MOVQ tvs_base+56(FP), DI
	MOVQ tvs_len+64(FP), DX
	SHLQ $2, AX
	ADDQ AX, SI
	MOVQ 0(DI), R8
	ADDQ AX, R8
	CMPQ DX, $1
	JEQ  loaded
	MOVQ 24(DI), R9
	ADDQ AX, R9
	CMPQ DX, $2
	JEQ  loaded
	MOVQ 48(DI), R10
	ADDQ AX, R10
	CMPQ DX, $3
	JEQ  loaded
	MOVQ 72(DI), R11
	ADDQ AX, R11
	CMPQ DX, $4
	JEQ  loaded
	MOVQ 96(DI), R12
	ADDQ AX, R12
	CMPQ DX, $5
	JEQ  loaded
	MOVQ 120(DI), R13
	ADDQ AX, R13
	CMPQ DX, $6
	JEQ  loaded
	MOVQ 144(DI), R14
	ADDQ AX, R14
	CMPQ DX, $7
	JEQ  loaded
	MOVQ 168(DI), BX
	ADDQ AX, BX

loaded:
	NEGQ  AX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ  AX, CX

dots:
	MOVUPS (SI)(CX*1), X8
	SGDOT(R8, X0)
	CMPQ   DX, $1
	JEQ    dotsnext
	SGDOT(R9, X1)
	CMPQ   DX, $2
	JEQ    dotsnext
	SGDOT(R10, X2)
	CMPQ   DX, $3
	JEQ    dotsnext
	SGDOT(R11, X3)
	CMPQ   DX, $4
	JEQ    dotsnext
	SGDOT(R12, X4)
	CMPQ   DX, $5
	JEQ    dotsnext
	SGDOT(R13, X5)
	CMPQ   DX, $6
	JEQ    dotsnext
	SGDOT(R14, X6)
	CMPQ   DX, $7
	JEQ    dotsnext
	SGDOT(BX, X7)

dotsnext:
	ADDQ $16, CX
	JNZ  dots

	XORPS X15, X15
	XORL  CX, CX
	LEAQ  ·sigTable(SB), DI
	SGGRAD(X0, 0, ONE)
	CMPQ  DX, $1
	JEQ   update
	SGGRAD(X1, 1, ZERO)
	CMPQ  DX, $2
	JEQ   update
	SGGRAD(X2, 2, ZERO)
	CMPQ  DX, $3
	JEQ   update
	SGGRAD(X3, 3, ZERO)
	CMPQ  DX, $4
	JEQ   update
	SGGRAD(X4, 4, ZERO)
	CMPQ  DX, $5
	JEQ   update
	SGGRAD(X5, 5, ZERO)
	CMPQ  DX, $6
	JEQ   update
	SGGRAD(X6, 6, ZERO)
	CMPQ  DX, $7
	JEQ   update
	SGGRAD(X7, 7, ZERO)

update:
	MOVQ  grad_base+32(FP), DI
	SUBQ  AX, DI
	TESTL CX, CX
	JZ    saturated
	MOVQ  cv_base+8(FP), SI
	SUBQ  AX, SI

	// The first unsaturated target initializes grad with g*t. Starting the
	// accumulator at -0, the one value x with x + y == y in every bit for
	// every y (0 + -0 would be +0), makes that the same code as the later
	// targets' grad += g*t.
	MOVL   $0x80000000, DX
	MOVL   DX, X14
	SHUFPS $0, X14, X14

updblock:
	MOVUPS (SI)(AX*1), X8
	MOVAPS X14, X9
	SGUPD(X0, R8, 1, upd1)
	SGUPD(X1, R9, 2, upd2)
	SGUPD(X2, R10, 4, upd3)
	SGUPD(X3, R11, 8, upd4)
	SGUPD(X4, R12, 16, upd5)
	SGUPD(X5, R13, 32, upd6)
	SGUPD(X6, R14, 64, upd7)
	SGUPD(X7, BX, 128, upd8)
	MOVUPS X9, (DI)(AX*1)
	ADDPS  X9, X8
	MOVUPS X8, (SI)(AX*1)
	ADDQ   $16, AX
	JNZ    updblock
	RET

saturated:
	// Every target saturated: grad is zero and cv is left alone.
	MOVUPS X15, (DI)(AX*1)
	ADDQ   $16, AX
	JNZ    saturated
	RET

// func meanPoolSSE2(dst, data []float32, rows []int32, inv float32)
//
// Column blocks outer, rows inner: the sums of a block start at +0 in
// registers, take the selected rows in index order, are multiplied once by
// inv and stored — dst is written once per block instead of once per row.
// Blocks are 16 floats (four registers) while the width lasts, then 4.
TEXT ·meanPoolSSE2(SB), NOSPLIT, $0-76
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), DX
	MOVQ   data_base+24(FP), SI
	MOVQ   rows_base+48(FP), R8
	MOVQ   rows_len+56(FP), R9
	MOVSS  inv+72(FP), X15
	SHUFPS $0, X15, X15
	MOVQ   DX, R10
	SHLQ   $2, R10
	LEAQ   (R8)(R9*4), R8
	NEGQ   R9

block16:
	CMPQ  DX, $16
	JLT   block4
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  R9, CX

rows16:
	MOVLQSX (R8)(CX*4), AX
	TESTQ   AX, AX
	JS      skip16
	IMULQ   R10, AX
	MOVUPS  0(SI)(AX*1), X4
	MOVUPS  16(SI)(AX*1), X5
	MOVUPS  32(SI)(AX*1), X6
	MOVUPS  48(SI)(AX*1), X7
	ADDPS   X4, X0
	ADDPS   X5, X1
	ADDPS   X6, X2
	ADDPS   X7, X3

skip16:
	INCQ   CX
	JNZ    rows16
	MULPS  X15, X0
	MULPS  X15, X1
	MULPS  X15, X2
	MULPS  X15, X3
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	SUBQ   $16, DX
	JMP    block16

block4:
	TESTQ DX, DX
	JZ    pooled
	XORPS X0, X0
	MOVQ  R9, CX

rows4:
	MOVLQSX (R8)(CX*4), AX
	TESTQ   AX, AX
	JS      skip4
	IMULQ   R10, AX
	MOVUPS  (SI)(AX*1), X4
	ADDPS   X4, X0

skip4:
	INCQ   CX
	JNZ    rows4
	MULPS  X15, X0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	SUBQ   $4, DX
	JMP    block4

pooled:
	RET

// SQSTEP loads the next component of p (SI), widens it to float64 — exact —
// and broadcasts it to both lanes of X6.
#define SQSTEP \
	MOVSS    (SI), X6 \
	CVTSS2SD X6, X6   \
	UNPCKLPD X6, X6

// SQPAIR advances the sums of the two centres OFF bytes into the current row
// of t (DX) by one component: x = p - c in that order, x*x, then the add, as
// SqDist's float64(a[i]) - float64(b[i]); s += d*d. MOVUPD: a []float64 is
// 8-byte aligned, not 16.
#define SQPAIR(OFF, S) \
	MOVAPS X6, X7      \
	MOVUPD OFF(DX), X8 \
	SUBPD  X8, X7      \
	MULPD  X7, X7      \
	ADDPD  X7, S

// SQNEXT moves to the next component: 4 bytes of p, one row (BX bytes) of t.
// Loops are entered at the test, so len(p) == 0 stores the +0 sums.
#define SQNEXT(LOOP, TEST) \
	ADDQ $4, SI \
	ADDQ BX, DX \
TEST:           \
	SUBQ $1, CX \
	JGE  LOOP

// func sqDistPairsSSE2(p []float32, t []float64, stride int, dist []float64, off, pairs int)
//
// Lanes are centres: X0..X5 hold the running sums of up to six centre pairs,
// every sum starts at +0 and takes its centre's terms in component order, so
// each lane is SqDist of p and that centre, and the pairs' add chains, which
// one SqDist call after another would run back to back, run side by side.
// One loop per pair count, so the loop holds no branch but its own.
TEXT ·sqDistPairsSSE2(SB), NOSPLIT, $0-96
	MOVQ  p_base+0(FP), SI
	MOVQ  p_len+8(FP), CX
	MOVQ  t_base+24(FP), DX
	MOVQ  stride+48(FP), BX
	MOVQ  dist_base+56(FP), DI
	MOVQ  off+80(FP), AX
	SHLQ  $3, BX
	LEAQ  (DX)(AX*8), DX
	LEAQ  (DI)(AX*8), DI
	MOVQ  pairs+88(FP), AX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	CMPQ  AX, $5
	JEQ   test5
	CMPQ  AX, $6
	JEQ   test6
	CMPQ  AX, $4
	JEQ   test4
	CMPQ  AX, $3
	JEQ   test3
	CMPQ  AX, $2
	JEQ   test2
	JMP   test1

loop6:
	SQSTEP
	SQPAIR(0, X0)
	SQPAIR(16, X1)
	SQPAIR(32, X2)
	SQPAIR(48, X3)
	SQPAIR(64, X4)
	SQPAIR(80, X5)
	SQNEXT(loop6, test6)
	MOVUPD X5, 80(DI)
	JMP    store5

loop5:
	SQSTEP
	SQPAIR(0, X0)
	SQPAIR(16, X1)
	SQPAIR(32, X2)
	SQPAIR(48, X3)
	SQPAIR(64, X4)
	SQNEXT(loop5, test5)

store5:
	MOVUPD X4, 64(DI)
	JMP    store4

loop4:
	SQSTEP
	SQPAIR(0, X0)
	SQPAIR(16, X1)
	SQPAIR(32, X2)
	SQPAIR(48, X3)
	SQNEXT(loop4, test4)

store4:
	MOVUPD X3, 48(DI)
	JMP    store3

loop3:
	SQSTEP
	SQPAIR(0, X0)
	SQPAIR(16, X1)
	SQPAIR(32, X2)
	SQNEXT(loop3, test3)

store3:
	MOVUPD X2, 32(DI)
	JMP    store2

loop2:
	SQSTEP
	SQPAIR(0, X0)
	SQPAIR(16, X1)
	SQNEXT(loop2, test2)

store2:
	MOVUPD X1, 16(DI)
	JMP    store1

loop1:
	SQSTEP
	SQPAIR(0, X0)
	SQNEXT(loop1, test1)

store1:
	MOVUPD X0, 0(DI)
	RET
