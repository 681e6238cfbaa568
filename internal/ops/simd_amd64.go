package ops

import (
	"fmt"
	"unsafe"

	"mlexray/internal/graph"
)

// useAVX2 selects the assembly inner tiles (simd_amd64.s) for the tiled
// backend's float and int8 kernels. It is what the code can observe — GOARCH plus one
// CPUID/XGETBV probe — and nothing a caller sets; the Go kernels are the only
// path when it is false and the differential oracle when it is true.
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func gemmF32AVX2(a, panel, bias, out *float32, m, n8, k, ldc int, lo, hi float32)

//go:noescape
func dwPixelsF32AVX2(in, w, bias, out *float32, taps, wofs *int, nt, npix, d, oc8, ldo int, lo, hi float32)

//go:noescape
func convPixelsF32AVX2(in, wT, bias, out *float32, runIn, runW, runLen *int, nRuns, npix, d, oc8, ldw, ldo int, lo, hi float32)

//go:noescape
func gemmQ8AVX2(a, panel *int16, bias, rq *int32, out *uint8, m, n8, kp, lda, ldc int, outZ, lo, hi int32)

//go:noescape
func dwPixelsQ8AVX2(in *uint8, w, bias, rq *int32, out *uint8, taps, wofs *int, nt, npix, d, oc8, ldo int, inZ, outZ, lo, hi int32)

// The wrappers below are the only callers of the assembly: each checks, once
// per call, every length and offset the tile will read or write, so the
// assembly never sees an unchecked operand. A nil bias reaches it as a nil
// pointer (unsafe.SliceData), which is how the tiles know to seed with zero.

func simdShort(op graph.OpType, what string, have, need int) error {
	return fmt.Errorf("ops: %v SIMD tile: %s has %d elements, needs %d", op, what, have, need)
}

// gemmLanesF32 computes out[i*ldc+j] = clamp(bias[j] + sum_p a[i*k+p] *
// panel[p*n8+j]) for i < m and j < n8, n8 a multiple of 8: the lane-aligned
// columns of a GEMM whose remaining columns the caller owns. bias is nil or
// at least n8 long.
func gemmLanesF32(op graph.OpType, a, panel, bias, out []float32, m, n8, k, ldc int, lo, hi float32) error {
	if m < 1 || k < 1 || n8 < 8 || n8%8 != 0 || ldc < n8 {
		return fmt.Errorf("ops: %v SIMD tile: bad GEMM shape m=%d n8=%d k=%d ldc=%d", op, m, n8, k, ldc)
	}
	if len(a) < m*k {
		return simdShort(op, "left operand", len(a), m*k)
	}
	if len(panel) < k*n8 {
		return simdShort(op, "weight panel", len(panel), k*n8)
	}
	if bias != nil && len(bias) < n8 {
		return simdShort(op, "bias", len(bias), n8)
	}
	if need := (m-1)*ldc + n8; len(out) < need {
		return simdShort(op, "output", len(out), need)
	}
	gemmF32AVX2(&a[0], &panel[0], unsafe.SliceData(bias), &out[0], m, n8, k, ldc, lo, hi)
	return nil
}

// dwLanesF32 computes channels [0, oc8) of npix depthwise output pixels that
// share the tap table (taps, wofs): pixel q reads in[taps[t]+q*d+c] and
// writes out[q*ldo+c]. oc8 is a multiple of 8; bias is nil or at least oc8
// long.
func dwLanesF32(op graph.OpType, in, w, bias, out []float32, taps, wofs []int, npix, d, oc8, ldo int, lo, hi float32) error {
	if npix < 1 || d < 0 || oc8 < 8 || oc8%8 != 0 || ldo < oc8 || len(wofs) < len(taps) {
		return fmt.Errorf("ops: %v SIMD tile: bad depthwise shape npix=%d d=%d oc8=%d ldo=%d taps=%d/%d", op, npix, d, oc8, ldo, len(taps), len(wofs))
	}
	span := (npix-1)*d + oc8
	for t, off := range taps {
		if off < 0 || len(in) < off+span {
			return simdShort(op, fmt.Sprintf("input at tap offset %d", off), len(in), off+span)
		}
		if wo := wofs[t]; wo < 0 || len(w) < wo+oc8 {
			return simdShort(op, fmt.Sprintf("weights at tap offset %d", wo), len(w), wo+oc8)
		}
	}
	if bias != nil && len(bias) < oc8 {
		return simdShort(op, "bias", len(bias), oc8)
	}
	if need := (npix-1)*ldo + oc8; len(out) < need {
		return simdShort(op, "output", len(out), need)
	}
	// SliceData, not &s[0]: with no taps the input and weights may be empty
	// (and are then never read), and a nil bias must arrive as a nil pointer.
	dwPixelsF32AVX2(unsafe.SliceData(in), unsafe.SliceData(w), unsafe.SliceData(bias), &out[0],
		unsafe.SliceData(taps), unsafe.SliceData(wofs), len(taps), npix, d, oc8, ldo, lo, hi)
	return nil
}

// convLanesF32 computes channels [0, oc8) of npix direct-convolution output
// pixels that share the run table: pixel q reads in[runIn[u]+q*d+i] for
// i < runLen[u] against panel rows runW[u]+i of wT (ldw floats a row) and
// writes out[q*ldo+c]. oc8 is a multiple of 8; bias is nil or at least oc8
// long.
func convLanesF32(op graph.OpType, in, wT, bias, out []float32, runIn, runW, runLen []int, npix, d, oc8, ldw, ldo int, lo, hi float32) error {
	nRuns := len(runIn)
	if npix < 1 || d < 0 || oc8 < 8 || oc8%8 != 0 || ldw < oc8 || ldo < oc8 || len(runW) < nRuns || len(runLen) < nRuns {
		return fmt.Errorf("ops: %v SIMD tile: bad convolution shape npix=%d d=%d oc8=%d ldw=%d ldo=%d runs=%d/%d/%d", op, npix, d, oc8, ldw, ldo, nRuns, len(runW), len(runLen))
	}
	for u, off := range runIn {
		n := runLen[u]
		if n <= 0 {
			continue
		}
		if need := off + (npix-1)*d + n; off < 0 || len(in) < need {
			return simdShort(op, fmt.Sprintf("input at run offset %d", off), len(in), need)
		}
		if need := (runW[u]+n-1)*ldw + oc8; runW[u] < 0 || len(wT) < need {
			return simdShort(op, fmt.Sprintf("weight panel at row %d", runW[u]), len(wT), need)
		}
	}
	if bias != nil && len(bias) < oc8 {
		return simdShort(op, "bias", len(bias), oc8)
	}
	if need := (npix-1)*ldo + oc8; len(out) < need {
		return simdShort(op, "output", len(out), need)
	}
	convPixelsF32AVX2(unsafe.SliceData(in), unsafe.SliceData(wT), unsafe.SliceData(bias), &out[0],
		unsafe.SliceData(runIn), unsafe.SliceData(runW), unsafe.SliceData(runLen), nRuns, npix, d, oc8, ldw, ldo, lo, hi)
	return nil
}

// gemmLanesQ8 computes out[i*ldc+j] for i < m and j < n8, n8 a multiple of
// 8: the int8 GEMM's lane-aligned columns, requantized through the
// requantizer lanes rq (at least n8/8 blocks). Row i's left operand is the kp
// int16 pairs at a[i*lda:]; panel is the [kp][n8][2] pair panel
// (packPairI16); bias is nil or at least n8 long.
func gemmLanesQ8(op graph.OpType, a, panel []int16, bias, rq []int32, out []uint8, m, n8, kp, lda, ldc int, outZ, lo, hi int32) error {
	if m < 1 || kp < 1 || lda < 1 || n8 < 8 || n8%8 != 0 || ldc < n8 {
		return fmt.Errorf("ops: %v SIMD tile: bad int8 GEMM shape m=%d n8=%d kp=%d lda=%d ldc=%d", op, m, n8, kp, lda, ldc)
	}
	if need := (m-1)*lda + 2*kp; len(a) < need {
		return simdShort(op, "left operand", len(a), need)
	}
	if len(panel) < 2*kp*n8 {
		return simdShort(op, "weight panel", len(panel), 2*kp*n8)
	}
	if bias != nil && len(bias) < n8 {
		return simdShort(op, "bias", len(bias), n8)
	}
	if need := n8 / 8 * rqBlock; len(rq) < need {
		return simdShort(op, "requantizer", len(rq), need)
	}
	if need := (m-1)*ldc + n8; len(out) < need {
		return simdShort(op, "output", len(out), need)
	}
	gemmQ8AVX2(&a[0], &panel[0], unsafe.SliceData(bias), &rq[0], &out[0], m, n8, kp, lda, ldc, outZ, lo, hi)
	return nil
}

// dwLanesQ8 computes channels [0, oc8) of npix int8 depthwise output pixels
// that share the tap table (taps, wofs): pixel q reads in[taps[t]+q*d+c] and
// w[wofs[t]+c] (widenI8's layout) and writes out[q*ldo+c], requantized
// through the requantizer lanes rq (at least oc8/8 blocks). oc8 is a
// multiple of 8; bias is nil or at least oc8 long.
func dwLanesQ8(op graph.OpType, in []uint8, w, bias, rq []int32, out []uint8, taps, wofs []int, npix, d, oc8, ldo int, inZ, outZ, lo, hi int32) error {
	if npix < 1 || d < 0 || oc8 < 8 || oc8%8 != 0 || ldo < oc8 || len(wofs) < len(taps) {
		return fmt.Errorf("ops: %v SIMD tile: bad int8 depthwise shape npix=%d d=%d oc8=%d ldo=%d taps=%d/%d", op, npix, d, oc8, ldo, len(taps), len(wofs))
	}
	span := (npix-1)*d + oc8
	for t, off := range taps {
		if off < 0 || len(in) < off+span {
			return simdShort(op, fmt.Sprintf("input at tap offset %d", off), len(in), off+span)
		}
		if wo := wofs[t]; wo < 0 || len(w) < wo+oc8 {
			return simdShort(op, fmt.Sprintf("weights at tap offset %d", wo), len(w), wo+oc8)
		}
	}
	if bias != nil && len(bias) < oc8 {
		return simdShort(op, "bias", len(bias), oc8)
	}
	if need := oc8 / 8 * rqBlock; len(rq) < need {
		return simdShort(op, "requantizer", len(rq), need)
	}
	if need := (npix-1)*ldo + oc8; len(out) < need {
		return simdShort(op, "output", len(out), need)
	}
	dwPixelsQ8AVX2(unsafe.SliceData(in), unsafe.SliceData(w), unsafe.SliceData(bias), &rq[0], &out[0],
		unsafe.SliceData(taps), unsafe.SliceData(wofs), len(taps), npix, d, oc8, ldo, inZ, outZ, lo, hi)
	return nil
}
