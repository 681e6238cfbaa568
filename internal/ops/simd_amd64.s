#include "textflag.h"

// AVX2 inner tiles of the tiled backend's float and int8 kernels (the int8
// ones follow the float ones below). One rule, the one
// DESIGN §10 states for the Go kernels: a lane is one output element, seeded
// with its bias, accumulating its terms in ascending order with a separate
// multiply (VMULPS) and add (VADDPS) — never an FMA, never a horizontal sum —
// so every output's rounding sequence is the scalar kernel's. The eight lanes
// of a register are eight adjacent output channels. The clamp is
// VMAXPS(lo, v) then VMINPS(hi, v) with v as the second source, which is what
// clampF32's compare-and-branch does with NaN and with -0 against a +0 bound
// (the second source is returned when either is NaN or both are zero).
//
// YMM only; VZEROUPPER before every RET. The Go wrappers in simd_amd64.go
// have checked every length and offset these loops read.

// CLAMP4 clamps the four accumulators Y0-Y3 to [Y12, Y13].
#define CLAMP4 \
	VMAXPS Y0, Y12, Y0 \
	VMAXPS Y1, Y12, Y1 \
	VMAXPS Y2, Y12, Y2 \
	VMAXPS Y3, Y12, Y3 \
	VMINPS Y0, Y13, Y0 \
	VMINPS Y1, Y13, Y1 \
	VMINPS Y2, Y13, Y2 \
	VMINPS Y3, Y13, Y3

// CLAMP1 clamps the accumulator Y0 to [Y12, Y13].
#define CLAMP1 \
	VMAXPS Y0, Y12, Y0 \
	VMINPS Y0, Y13, Y0

// func hasAVX2() bool
//
// AVX2 usable: the CPU has it and the OS saves YMM state (OSXSAVE, and XCR0
// bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  noavx2
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  noavx2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX // AVX2
	JZ   noavx2
	MOVB $1, ret+0(FP)
noavx2:
	RET

// func gemmF32AVX2(a, panel, bias, out *float32, m, n8, k, ldc int, lo, hi float32)
//
// out[i*ldc+j] = clamp(bias[j] + sum_p a[i*k+p]*panel[p*n8+j]) for i < m,
// j < n8; n8 is a positive multiple of 8, m and k are positive, bias may be
// nil. Tiles are 4 rows x 8 columns (four accumulators sharing one panel
// load per p); the m%4 tail rows run one at a time.
TEXT ·gemmF32AVX2(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), SI
	MOVQ panel+8(FP), BX
	MOVQ bias+16(FP), R8
	MOVQ out+24(FP), DI
	MOVQ m+32(FP), R11
	MOVQ n8+40(FP), R12
	MOVQ k+48(FP), R9
	MOVQ ldc+56(FP), DX
	VBROADCASTSS lo+64(FP), Y12
	VBROADCASTSS hi+68(FP), Y13
	SHLQ $2, R12            // panel row stride, bytes
	SHLQ $2, R9             // a row stride, bytes
	SHLQ $2, DX             // out row stride, bytes
	LEAQ (R9)(R9*2), R10    // three a rows

gemm_rows4:
	CMPQ R11, $4
	JLT  gemm_rows1
	XORQ R14, R14           // column byte offset

gemm_cols4:
	VXORPS Y0, Y0, Y0
	TESTQ R8, R8
	JZ   gemm_seeded4
	VMOVUPS (R8)(R14*1), Y0
gemm_seeded4:
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	LEAQ (BX)(R14*1), R13
	MOVQ SI, AX
	MOVQ k+48(FP), CX

gemm_k4:
	VMOVUPS (R13), Y4
	VBROADCASTSS (AX), Y5
	VBROADCASTSS (AX)(R9*1), Y6
	VBROADCASTSS (AX)(R9*2), Y7
	VBROADCASTSS (AX)(R10*1), Y8
	VMULPS Y4, Y5, Y5
	VMULPS Y4, Y6, Y6
	VMULPS Y4, Y7, Y7
	VMULPS Y4, Y8, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	ADDQ $4, AX
	ADDQ R12, R13
	DECQ CX
	JNZ  gemm_k4

	CLAMP4
	LEAQ (DI)(R14*1), AX
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, (AX)(DX*1)
	VMOVUPS Y2, (AX)(DX*2)
	ADDQ DX, AX
	VMOVUPS Y3, (AX)(DX*2)
	ADDQ $32, R14
	CMPQ R14, R12
	JLT  gemm_cols4

	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(DX*4), DI
	SUBQ $4, R11
	JMP  gemm_rows4

gemm_rows1:
	TESTQ R11, R11
	JZ   gemm_done
	XORQ R14, R14

gemm_cols1:
	VXORPS Y0, Y0, Y0
	TESTQ R8, R8
	JZ   gemm_seeded1
	VMOVUPS (R8)(R14*1), Y0
gemm_seeded1:
	LEAQ (BX)(R14*1), R13
	MOVQ SI, AX
	MOVQ k+48(FP), CX

gemm_k1:
	VBROADCASTSS (AX), Y5
	VMULPS (R13), Y5, Y5
	VADDPS Y5, Y0, Y0
	ADDQ $4, AX
	ADDQ R12, R13
	DECQ CX
	JNZ  gemm_k1

	CLAMP1
	VMOVUPS Y0, (DI)(R14*1)
	ADDQ $32, R14
	CMPQ R14, R12
	JLT  gemm_cols1

	ADDQ R9, SI
	ADDQ DX, DI
	DECQ R11
	JMP  gemm_rows1

gemm_done:
	VZEROUPPER
	RET

// func dwPixelsF32AVX2(in, w, bias, out *float32, taps, wofs *int, nt, npix, d, oc8, ldo int, lo, hi float32)
//
// Depthwise: npix output pixels that share one tap table, pixel q reading its
// input d elements after pixel q-1 and writing its output ldo elements after.
// out[q*ldo+c] = clamp(bias[c] + sum_t in[taps[t]+q*d+c]*w[wofs[t]+c]) for
// c < oc8 (a positive multiple of 8). Pixels run four at a time, sharing each
// weight load, then one at a time. nt may be zero.
TEXT ·dwPixelsF32AVX2(SB), NOSPLIT, $0-96
	MOVQ in+0(FP), SI
	MOVQ w+8(FP), BX
	MOVQ bias+16(FP), R8
	MOVQ out+24(FP), DI
	MOVQ taps+32(FP), R9
	MOVQ wofs+40(FP), R10
	MOVQ d+64(FP), R11
	MOVQ ldo+80(FP), DX
	VBROADCASTSS lo+88(FP), Y12
	VBROADCASTSS hi+92(FP), Y13
	SHLQ $2, R11            // pixel-to-pixel input stride, bytes
	SHLQ $2, DX             // pixel-to-pixel output stride, bytes

dw_block:
	VXORPS Y11, Y11, Y11
	TESTQ R8, R8
	JZ   dw_seeded
	VMOVUPS (R8), Y11
	ADDQ $32, R8
dw_seeded:
	MOVQ npix+56(FP), R13   // pixels left in this channel block
	MOVQ SI, R14            // input base of the current pixel
	MOVQ DI, R12            // output row of the current pixel

dw_pix4:
	CMPQ R13, $4
	JLT  dw_pix1
	VMOVAPS Y11, Y0
	VMOVAPS Y11, Y1
	VMOVAPS Y11, Y2
	VMOVAPS Y11, Y3
	XORQ CX, CX
	JMP  dw_tap4_test

dw_tap4:
	MOVQ (R10)(CX*8), AX
	VMOVUPS (BX)(AX*4), Y4
	MOVQ (R9)(CX*8), AX
	LEAQ (R14)(AX*4), AX
	VMULPS (AX), Y4, Y5
	VMULPS (AX)(R11*1), Y4, Y6
	VMULPS (AX)(R11*2), Y4, Y7
	ADDQ R11, AX
	VMULPS (AX)(R11*2), Y4, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	INCQ CX
dw_tap4_test:
	CMPQ CX, nt+48(FP)
	JLT  dw_tap4

	CLAMP4
	VMOVUPS Y0, (R12)
	VMOVUPS Y1, (R12)(DX*1)
	VMOVUPS Y2, (R12)(DX*2)
	ADDQ DX, R12
	VMOVUPS Y3, (R12)(DX*2)
	LEAQ (R12)(DX*2), R12
	ADDQ DX, R12
	LEAQ (R14)(R11*4), R14
	SUBQ $4, R13
	JMP  dw_pix4

dw_pix1:
	TESTQ R13, R13
	JZ   dw_next_block
	VMOVAPS Y11, Y0
	XORQ CX, CX
	JMP  dw_tap1_test

dw_tap1:
	MOVQ (R10)(CX*8), AX
	VMOVUPS (BX)(AX*4), Y4
	MOVQ (R9)(CX*8), AX
	VMULPS (R14)(AX*4), Y4, Y5
	VADDPS Y5, Y0, Y0
	INCQ CX
dw_tap1_test:
	CMPQ CX, nt+48(FP)
	JLT  dw_tap1

	CLAMP1
	VMOVUPS Y0, (R12)
	ADDQ DX, R12
	ADDQ R11, R14
	DECQ R13
	JMP  dw_pix1

dw_next_block:
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	SUBQ $8, oc8+72(FP)
	JGT  dw_block
	VZEROUPPER
	RET

// func convPixelsF32AVX2(in, wT, bias, out *float32, runIn, runW, runLen *int, nRuns, npix, d, oc8, ldw, ldo int, lo, hi float32)
//
// Direct convolution: npix output pixels that share one run table (the
// contiguous input run of each valid kernel row), pixel q reading its input d
// elements after pixel q-1 and writing its output ldo elements after.
// out[q*ldo+c] = clamp(bias[c] + sum_u sum_i in[runIn[u]+q*d+i]*wT[(runW[u]+i)*ldw+c])
// for c < oc8 (a positive multiple of 8), u and i ascending. Pixels run four
// at a time, sharing each weight load, then one at a time. nRuns and any
// runLen may be zero.
TEXT ·convPixelsF32AVX2(SB), NOSPLIT, $0-112
	MOVQ in+0(FP), SI
	MOVQ wT+8(FP), BX
	MOVQ out+24(FP), DI
	MOVQ runIn+32(FP), R9
	MOVQ runW+40(FP), R10
	MOVQ d+72(FP), R11
	MOVQ ldw+88(FP), R12
	VBROADCASTSS lo+104(FP), Y12
	VBROADCASTSS hi+108(FP), Y13
	SHLQ $2, R11            // pixel-to-pixel input stride, bytes
	SHLQ $2, R12            // weight row stride, bytes
	LEAQ (R11)(R11*2), R13  // three pixels

conv_block:
	VXORPS Y11, Y11, Y11
	MOVQ bias+16(FP), AX
	TESTQ AX, AX
	JZ   conv_seeded
	VMOVUPS (AX), Y11
	ADDQ $32, AX
	MOVQ AX, bias+16(FP)
conv_seeded:
	MOVQ npix+64(FP), R14   // pixels left in this channel block
	MOVQ SI, in+0(FP)       // SI walks the pixels; restored per block
	MOVQ DI, out+24(FP)     // so does DI

conv_pix4:
	CMPQ R14, $4
	JLT  conv_pix1
	VMOVAPS Y11, Y0
	VMOVAPS Y11, Y1
	VMOVAPS Y11, Y2
	VMOVAPS Y11, Y3
	XORQ R8, R8
	JMP  conv_run4_test

conv_run4:
	MOVQ runLen+48(FP), CX
	MOVQ (CX)(R8*8), CX
	TESTQ CX, CX
	JLE  conv_run4_next
	MOVQ (R9)(R8*8), AX
	LEAQ (SI)(AX*4), AX
	MOVQ (R10)(R8*8), DX
	IMULQ R12, DX
	ADDQ BX, DX

conv_i4:
	VMOVUPS (DX), Y4
	VBROADCASTSS (AX), Y5
	VBROADCASTSS (AX)(R11*1), Y6
	VBROADCASTSS (AX)(R11*2), Y7
	VBROADCASTSS (AX)(R13*1), Y8
	VMULPS Y4, Y5, Y5
	VMULPS Y4, Y6, Y6
	VMULPS Y4, Y7, Y7
	VMULPS Y4, Y8, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	ADDQ $4, AX
	ADDQ R12, DX
	DECQ CX
	JNZ  conv_i4

conv_run4_next:
	INCQ R8
conv_run4_test:
	CMPQ R8, nRuns+56(FP)
	JLT  conv_run4

	CLAMP4
	MOVQ ldo+96(FP), AX
	SHLQ $2, AX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(AX*1)
	VMOVUPS Y2, (DI)(AX*2)
	ADDQ AX, DI
	VMOVUPS Y3, (DI)(AX*2)
	LEAQ (DI)(AX*2), DI
	ADDQ AX, DI
	LEAQ (SI)(R11*4), SI
	SUBQ $4, R14
	JMP  conv_pix4

conv_pix1:
	TESTQ R14, R14
	JZ   conv_next_block
	VMOVAPS Y11, Y0
	XORQ R8, R8
	JMP  conv_run1_test

conv_run1:
	MOVQ runLen+48(FP), CX
	MOVQ (CX)(R8*8), CX
	TESTQ CX, CX
	JLE  conv_run1_next
	MOVQ (R9)(R8*8), AX
	LEAQ (SI)(AX*4), AX
	MOVQ (R10)(R8*8), DX
	IMULQ R12, DX
	ADDQ BX, DX

conv_i1:
	VBROADCASTSS (AX), Y5
	VMULPS (DX), Y5, Y5
	VADDPS Y5, Y0, Y0
	ADDQ $4, AX
	ADDQ R12, DX
	DECQ CX
	JNZ  conv_i1

conv_run1_next:
	INCQ R8
conv_run1_test:
	CMPQ R8, nRuns+56(FP)
	JLT  conv_run1

	CLAMP1
	VMOVUPS Y0, (DI)
	MOVQ ldo+96(FP), AX
	LEAQ (DI)(AX*4), DI
	ADDQ R11, SI
	DECQ R14
	JMP  conv_pix1

conv_next_block:
	MOVQ in+0(FP), SI
	MOVQ out+24(FP), DI
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $8, oc8+80(FP)
	JGT  conv_block
	VZEROUPPER
	RET

// Int8 tiles. The same rule — one lane is one output channel — over int32
// accumulators: an accumulator is seeded with its bias and takes its terms by
// VPADDD, which wraps exactly as the Go kernels' int32 additions do, so the
// order of the terms is invisible. The GEMM multiplies an int16 activation
// pair, broadcast to every lane (VPBROADCASTD), against each lane's int16
// weight pair (VPMADDWD): two MACs a lane, exact, since a pair sum is at most
// 2*255*128. Depthwise multiplies the zero-corrected input (VPMOVZXBD, VPSUBD)
// by a weight whose high word is zero (VPMADDWD again: the high product
// vanishes). The requantizing store (REQUANT8) is the lane form of
// quant.Multiplier.Apply; see requant.go for the lane layout.

// RQCONSTS loads the store's constants: Y15 the nudge 2^30 and Y14 the
// negative product's correction 1-2^31 (both per 64-bit lane), Y10 zero.
// Clobbers AX. Each kernel then broadcasts the output zero point into Y13 and
// the clamp bounds into Y12/Y11 (BCASTD, from its own arguments).
#define RQCONSTS \
	MOVQ $0x40000000, AX \
	VMOVQ AX, X15 \
	VPBROADCASTQ X15, Y15 \
	MOVQ $-2147483647, AX \
	VMOVQ AX, X14 \
	VPBROADCASTQ X14, Y14 \
	VPXOR Y10, Y10, Y10

// BCASTD broadcasts the 32-bit value in AX to every lane of y (x is its low
// half).
#define BCASTD(x, y) \
	VMOVD AX, x \
	VPBROADCASTD x, y

// REQUANT8 requantizes the eight int32 accumulators of acc (xacc is its low
// half) through the requantizer block at AX and stores them as eight bytes at
// dst. Y8 holds the block's M (read from the even lanes) and Y9 the same
// shifted down one lane (the odd lanes); Y4-Y6 are scratch.
//
// The saturating doubling high multiply: VPMULDQ forms the exact 64-bit
// product of each even (then, shifted down, each odd) lane; the nudge is 2^30,
// plus 1-2^31 where the product is negative (VPCMPGTQ against zero). The
// product's >> 31 is VPSRLQ: of a 64-bit value shifted right by 31 the low 32
// bits are bits 31..62 whether the shift is logical or arithmetic, and the odd
// lanes take the same bits into their high half by VPSLLQ 1. M > 0 and
// |acc| <= 2^31 keep the sum inside 64 bits and leave no lane to saturate.
// Then the rounding shift: VPSRAVD by each lane's shift, plus one where
// (v & mask) + (v < 0 ? -1 : 0) > half — the oracle's remainder > threshold.
// Where the block's logical vector is set (the historical kernel, shift > 0)
// and v < 0, VPBLENDVB takes the logical shift VPSRLVD instead. Then the zero
// point, the clamp, and two saturating packs that are exact on [lo, hi].
#define REQUANT8(acc, xacc, dst) \
	VPMULDQ Y8, acc, Y4 \
	VPCMPGTQ Y4, Y10, Y6 \
	VPAND Y14, Y6, Y6 \
	VPADDQ Y15, Y4, Y4 \
	VPADDQ Y6, Y4, Y4 \
	VPSRLQ $31, Y4, Y4 \
	VPSRLQ $32, acc, Y5 \
	VPMULDQ Y9, Y5, Y5 \
	VPCMPGTQ Y5, Y10, Y6 \
	VPAND Y14, Y6, Y6 \
	VPADDQ Y15, Y5, Y5 \
	VPADDQ Y6, Y5, Y5 \
	VPSLLQ $1, Y5, Y5 \
	VPBLENDD $0xAA, Y5, Y4, acc \
	VPSRAD $31, acc, Y4 \
	VPAND 64(AX), acc, Y5 \
	VPADDD Y4, Y5, Y5 \
	VPCMPGTD 96(AX), Y5, Y5 \
	VPAND 128(AX), Y4, Y4 \
	VPSRAVD 32(AX), acc, Y6 \
	VPSUBD Y5, Y6, Y6 \
	VPSRLVD 32(AX), acc, Y5 \
	VPBLENDVB Y4, Y5, Y6, acc \
	VPADDD Y13, acc, acc \
	VPMAXSD Y12, acc, acc \
	VPMINSD Y11, acc, acc \
	VEXTRACTI128 $1, acc, X4 \
	VPACKUSDW X4, xacc, X4 \
	VPACKUSWB X4, X4, X4 \
	VMOVQ X4, dst

// func gemmQ8AVX2(a, panel *int16, bias, rq *int32, out *uint8, m, n8, kp, lda, ldc int, outZ, lo, hi int32)
//
// out[i*ldc+j] = store_j(bias[j] + sum_p a[i*lda+2p..2p+1] . panel[p][j][0..1])
// for i < m, j < n8 (a positive multiple of 8), p < kp; bias may be nil. The
// panel is [kp][n8][2] int16; the last pair of an odd k is padded with a zero
// weight, so the activation it pairs with (the next row's first, or the
// buffer's slack element) adds nothing. Tiles are 4 rows x 8 columns, then
// one row at a time.
TEXT ·gemmQ8AVX2(SB), NOSPLIT, $0-92
	MOVQ a+0(FP), SI
	MOVQ panel+8(FP), BX
	MOVQ bias+16(FP), R8
	MOVQ out+32(FP), DI
	MOVQ m+40(FP), R11
	MOVQ n8+48(FP), R12
	MOVQ lda+64(FP), R9
	MOVQ ldc+72(FP), DX
	RQCONSTS
	MOVL outZ+80(FP), AX
	BCASTD(X13, Y13)
	MOVL lo+84(FP), AX
	BCASTD(X12, Y12)
	MOVL hi+88(FP), AX
	BCASTD(X11, Y11)
	SHLQ $2, R12            // panel row stride, bytes (= int32 column extent)
	SHLQ $1, R9             // a row stride, bytes
	LEAQ (R9)(R9*2), R10    // three a rows

gq_rows4:
	CMPQ R11, $4
	JLT  gq_rows1
	XORQ R14, R14           // column offset in int32 bytes

gq_cols4:
	VPXOR Y0, Y0, Y0
	TESTQ R8, R8
	JZ   gq_seeded4
	VMOVDQU (R8)(R14*1), Y0
gq_seeded4:
	VMOVDQA Y0, Y1
	VMOVDQA Y0, Y2
	VMOVDQA Y0, Y3
	LEAQ (BX)(R14*1), R13
	MOVQ SI, AX
	MOVQ kp+56(FP), CX

gq_k4:
	VMOVDQU (R13), Y4
	VPBROADCASTD (AX), Y5
	VPBROADCASTD (AX)(R9*1), Y6
	VPBROADCASTD (AX)(R9*2), Y7
	VPBROADCASTD (AX)(R10*1), Y8
	VPMADDWD Y4, Y5, Y5
	VPMADDWD Y4, Y6, Y6
	VPMADDWD Y4, Y7, Y7
	VPMADDWD Y4, Y8, Y8
	VPADDD Y5, Y0, Y0
	VPADDD Y6, Y1, Y1
	VPADDD Y7, Y2, Y2
	VPADDD Y8, Y3, Y3
	ADDQ $4, AX
	ADDQ R12, R13
	DECQ CX
	JNZ  gq_k4

	MOVQ rq+24(FP), AX
	LEAQ (R14)(R14*4), CX   // requantizer block: 5 vectors a column block
	ADDQ CX, AX
	VMOVDQU (AX), Y8
	VPSRLQ $32, Y8, Y9
	MOVQ R14, CX
	SHRQ $2, CX
	ADDQ DI, CX
	REQUANT8(Y0, X0, (CX))
	REQUANT8(Y1, X1, (CX)(DX*1))
	REQUANT8(Y2, X2, (CX)(DX*2))
	ADDQ DX, CX
	REQUANT8(Y3, X3, (CX)(DX*2))
	ADDQ $32, R14
	CMPQ R14, R12
	JLT  gq_cols4

	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(DX*4), DI
	SUBQ $4, R11
	JMP  gq_rows4

gq_rows1:
	TESTQ R11, R11
	JZ   gq_done
	XORQ R14, R14

gq_cols1:
	VPXOR Y0, Y0, Y0
	TESTQ R8, R8
	JZ   gq_seeded1
	VMOVDQU (R8)(R14*1), Y0
gq_seeded1:
	LEAQ (BX)(R14*1), R13
	MOVQ SI, AX
	MOVQ kp+56(FP), CX

gq_k1:
	VPBROADCASTD (AX), Y5
	VPMADDWD (R13), Y5, Y5
	VPADDD Y5, Y0, Y0
	ADDQ $4, AX
	ADDQ R12, R13
	DECQ CX
	JNZ  gq_k1

	MOVQ rq+24(FP), AX
	LEAQ (R14)(R14*4), CX
	ADDQ CX, AX
	VMOVDQU (AX), Y8
	VPSRLQ $32, Y8, Y9
	MOVQ R14, CX
	SHRQ $2, CX
	ADDQ DI, CX
	REQUANT8(Y0, X0, (CX))
	ADDQ $32, R14
	CMPQ R14, R12
	JLT  gq_cols1

	ADDQ R9, SI
	ADDQ DX, DI
	DECQ R11
	JMP  gq_rows1

gq_done:
	VZEROUPPER
	RET

// func dwPixelsQ8AVX2(in *uint8, w, bias, rq *int32, out *uint8, taps, wofs *int, nt, npix, d, oc8, ldo int, inZ, outZ, lo, hi int32)
//
// Int8 depthwise: npix output pixels that share one tap table, pixel q
// reading its input d bytes after pixel q-1 and writing its output ldo bytes
// after. out[q*ldo+c] = store_c(bias[c] + sum_t (in[taps[t]+q*d+c]-inZ) *
// w[wofs[t]+c]) for c < oc8 (a positive multiple of 8); w holds each int8
// weight in the low half of an int32 whose high half is zero. Pixels run four
// at a time, sharing each weight load, then one at a time. nt may be zero.
TEXT ·dwPixelsQ8AVX2(SB), NOSPLIT, $0-112
	MOVQ in+0(FP), SI
	MOVQ w+8(FP), BX
	MOVQ bias+16(FP), R8
	MOVQ out+32(FP), DI
	MOVQ taps+40(FP), R9
	MOVQ wofs+48(FP), R10
	MOVQ d+72(FP), R11
	MOVQ ldo+88(FP), DX
	RQCONSTS
	MOVL outZ+100(FP), AX
	BCASTD(X13, Y13)
	MOVL lo+104(FP), AX
	BCASTD(X12, Y12)
	MOVL hi+108(FP), AX
	BCASTD(X11, Y11)
	MOVL inZ+96(FP), AX
	BCASTD(X7, Y7)

dq_block:
	MOVQ rq+24(FP), AX
	VMOVDQU (AX), Y8
	VPSRLQ $32, Y8, Y9
	MOVQ npix+64(FP), R13   // pixels left in this channel block
	MOVQ SI, R14            // input base of the current pixel
	MOVQ DI, R12            // output row of the current pixel

dq_pix4:
	CMPQ R13, $4
	JLT  dq_pix1
	VPXOR Y0, Y0, Y0
	TESTQ R8, R8
	JZ   dq_seeded4
	VMOVDQU (R8), Y0
dq_seeded4:
	VMOVDQA Y0, Y1
	VMOVDQA Y0, Y2
	VMOVDQA Y0, Y3
	XORQ CX, CX
	JMP  dq_tap4_test

dq_tap4:
	MOVQ (R10)(CX*8), AX
	VMOVDQU (BX)(AX*4), Y4
	MOVQ (R9)(CX*8), AX
	ADDQ R14, AX
	VPMOVZXBD (AX), Y5
	VPMOVZXBD (AX)(R11*1), Y6
	VPSUBD Y7, Y5, Y5
	VPSUBD Y7, Y6, Y6
	VPMADDWD Y4, Y5, Y5
	VPMADDWD Y4, Y6, Y6
	VPADDD Y5, Y0, Y0
	VPADDD Y6, Y1, Y1
	VPMOVZXBD (AX)(R11*2), Y5
	ADDQ R11, AX
	VPMOVZXBD (AX)(R11*2), Y6
	VPSUBD Y7, Y5, Y5
	VPSUBD Y7, Y6, Y6
	VPMADDWD Y4, Y5, Y5
	VPMADDWD Y4, Y6, Y6
	VPADDD Y5, Y2, Y2
	VPADDD Y6, Y3, Y3
	INCQ CX
dq_tap4_test:
	CMPQ CX, nt+56(FP)
	JLT  dq_tap4

	MOVQ rq+24(FP), AX
	REQUANT8(Y0, X0, (R12))
	REQUANT8(Y1, X1, (R12)(DX*1))
	REQUANT8(Y2, X2, (R12)(DX*2))
	ADDQ DX, R12
	REQUANT8(Y3, X3, (R12)(DX*2))
	LEAQ (R12)(DX*2), R12
	ADDQ DX, R12
	LEAQ (R14)(R11*4), R14
	SUBQ $4, R13
	JMP  dq_pix4

dq_pix1:
	TESTQ R13, R13
	JZ   dq_next_block
	VPXOR Y0, Y0, Y0
	TESTQ R8, R8
	JZ   dq_seeded1
	VMOVDQU (R8), Y0
dq_seeded1:
	XORQ CX, CX
	JMP  dq_tap1_test

dq_tap1:
	MOVQ (R10)(CX*8), AX
	VMOVDQU (BX)(AX*4), Y4
	MOVQ (R9)(CX*8), AX
	VPMOVZXBD (R14)(AX*1), Y5
	VPSUBD Y7, Y5, Y5
	VPMADDWD Y4, Y5, Y5
	VPADDD Y5, Y0, Y0
	INCQ CX
dq_tap1_test:
	CMPQ CX, nt+56(FP)
	JLT  dq_tap1

	MOVQ rq+24(FP), AX
	REQUANT8(Y0, X0, (R12))
	ADDQ DX, R12
	ADDQ R11, R14
	DECQ R13
	JMP  dq_pix1

dq_next_block:
	ADDQ $8, SI
	ADDQ $32, BX
	ADDQ $8, DI
	TESTQ R8, R8
	JZ   dq_bias_done
	ADDQ $32, R8
dq_bias_done:
	ADDQ $160, rq+24(FP)
	SUBQ $8, oc8+80(FP)
	JGT  dq_block
	VZEROUPPER
	RET
