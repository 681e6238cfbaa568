//go:build !amd64

package ops

import (
	"fmt"

	"mlexray/internal/graph"
)

// useAVX2 is never true off amd64: the Go kernels are the only path, and the
// wrappers below exist so the callers compile.
var useAVX2 = false

func errNoSIMD(op graph.OpType) error {
	return fmt.Errorf("ops: %v SIMD tile: not built for this architecture", op)
}

func gemmLanesF32(op graph.OpType, a, panel, bias, out []float32, m, n8, k, ldc int, lo, hi float32) error {
	return errNoSIMD(op)
}

func dwLanesF32(op graph.OpType, in, w, bias, out []float32, taps, wofs []int, npix, d, oc8, ldo int, lo, hi float32) error {
	return errNoSIMD(op)
}

func convLanesF32(op graph.OpType, in, wT, bias, out []float32, runIn, runW, runLen []int, npix, d, oc8, ldw, ldo int, lo, hi float32) error {
	return errNoSIMD(op)
}

func gemmLanesQ8(op graph.OpType, a, panel []int16, bias, rq []int32, out []uint8, m, n8, kp, lda, ldc int, outZ, lo, hi int32) error {
	return errNoSIMD(op)
}

func dwLanesQ8(op graph.OpType, in []uint8, w, bias, rq []int32, out []uint8, taps, wofs []int, npix, d, oc8, ldo int, inZ, outZ, lo, hi int32) error {
	return errNoSIMD(op)
}
