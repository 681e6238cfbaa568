#include "textflag.h"

// AVX2 inner tiles of the tiled backend's float kernels. One rule, the one
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
