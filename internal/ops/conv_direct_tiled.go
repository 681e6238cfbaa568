package ops

import "mlexray/internal/graph"

// Direct (im2col-free) float convolution for the tiled backend. For
// non-pointwise convolutions the packed GEMM lowering first materializes the
// [oh*ow, kh*kw*ic] patch matrix; for the small-k kernels where such layers
// occur (stems like 3x3xRGB) that copy costs a large fraction of the GEMM
// itself. The direct kernel instead walks each output pixel's patch in
// place: per valid kernel row the patch is one contiguous input run (this
// requires DilationW == 1 — the dispatcher falls back to im2col otherwise),
// and each input value is broadcast against eight output-channel weights
// from a transposed packed panel wT[k][oc], accumulating in registers. The
// per-element k order (ky, kx, ci ascending) is exactly the GEMM's p order,
// so the results are bitwise identical to the packed float path. Bias and
// activation clamp are fused into the store, as everywhere on the tiled
// backend. Where the AVX2 tile is available (useAVX2) the eight channel
// accumulators are one YMM register and the x-interior pixels of a row, which
// share a run table, go to the assembly in one call (convLanesF32); the Go
// pixel kernel below is the other path and the oracle.

// maxConvRuns bounds the per-pixel run table (one run per kernel row).
const maxConvRuns = 8

// packTransposeF32 packs the [oc, k] weight matrix into wT[k][oc] so the
// broadcast kernel reads its eight channel weights contiguously.
func packTransposeF32(src []float32, oc, k int) []float32 {
	dst := make([]float32, k*oc)
	for co := 0; co < oc; co++ {
		row := src[co*k : co*k+k]
		for p, v := range row {
			dst[p*oc+co] = v
		}
	}
	return dst
}

// convPixelF32 accumulates all oc output channels of one pixel from its
// nRuns contiguous patch runs. runIn[u] is the input offset of run u,
// runW[u] the corresponding k index (row offset into wT is runW[u]*oc),
// runLen[u] its element count. Small on purpose: the register allocator
// keeps the eight accumulators and the loop state in registers only when
// the function body is this narrow.
func convPixelF32(inF, wT, bf, outRow []float32, runIn, runW, runLen *[maxConvRuns]int, nRuns, oc int, lo, hi float32) {
	co := 0
	for ; co+8 <= oc; co += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		if bf != nil {
			s0, s1, s2, s3 = bf[co], bf[co+1], bf[co+2], bf[co+3]
			s4, s5, s6, s7 = bf[co+4], bf[co+5], bf[co+6], bf[co+7]
		}
		for u := 0; u < nRuns; u++ {
			inRun := inF[runIn[u]:][:runLen[u]]
			wOff := runW[u]*oc + co
			for _, v := range inRun {
				wR := wT[wOff:][:8]
				s0 += v * wR[0]
				s1 += v * wR[1]
				s2 += v * wR[2]
				s3 += v * wR[3]
				s4 += v * wR[4]
				s5 += v * wR[5]
				s6 += v * wR[6]
				s7 += v * wR[7]
				wOff += oc
			}
		}
		o := outRow[co:][:8]
		o[0] = clampF32(s0, lo, hi)
		o[1] = clampF32(s1, lo, hi)
		o[2] = clampF32(s2, lo, hi)
		o[3] = clampF32(s3, lo, hi)
		o[4] = clampF32(s4, lo, hi)
		o[5] = clampF32(s5, lo, hi)
		o[6] = clampF32(s6, lo, hi)
		o[7] = clampF32(s7, lo, hi)
	}
	for ; co+4 <= oc; co += 4 {
		var s0, s1, s2, s3 float32
		if bf != nil {
			s0, s1, s2, s3 = bf[co], bf[co+1], bf[co+2], bf[co+3]
		}
		for u := 0; u < nRuns; u++ {
			inRun := inF[runIn[u]:][:runLen[u]]
			wOff := runW[u]*oc + co
			for _, v := range inRun {
				wR := wT[wOff:][:4]
				s0 += v * wR[0]
				s1 += v * wR[1]
				s2 += v * wR[2]
				s3 += v * wR[3]
				wOff += oc
			}
		}
		o := outRow[co:][:4]
		o[0] = clampF32(s0, lo, hi)
		o[1] = clampF32(s1, lo, hi)
		o[2] = clampF32(s2, lo, hi)
		o[3] = clampF32(s3, lo, hi)
	}
	for ; co < oc; co++ {
		var s float32
		if bf != nil {
			s = bf[co]
		}
		for u := 0; u < nRuns; u++ {
			inRun := inF[runIn[u]:][:runLen[u]]
			wOff := runW[u]*oc + co
			for _, v := range inRun {
				s += v * wT[wOff]
				wOff += oc
			}
		}
		outRow[co] = clampF32(s, lo, hi)
	}
}

// convPixelTailF32 is convPixelF32's single-chain loop over channels
// [co0, oc) only: the oc%8 tail the assembly tile leaves. (Kept apart from
// convPixelF32's own tail on purpose: with the call in it that kernel read
// ~10% slower on the stem, and it is the fallback hosts' whole conv1.)
func convPixelTailF32(inF, wT, bf, outRow []float32, runIn, runW, runLen *[maxConvRuns]int, nRuns, co0, oc int, lo, hi float32) {
	for co := co0; co < oc; co++ {
		var s float32
		if bf != nil {
			s = bf[co]
		}
		for u := 0; u < nRuns; u++ {
			wOff := runW[u]*oc + co
			for _, v := range inF[runIn[u]:][:runLen[u]] {
				s += v * wT[wOff]
				wOff += oc
			}
		}
		outRow[co] = clampF32(s, lo, hi)
	}
}

// maxConvDirectIC bounds the input channels the direct kernel accepts.
// Direct conv only beats im2col + packed GEMM when the patch copy is large
// relative to the arithmetic — narrow-input stems (RGB and other thin
// layers). On wide inputs the broadcast kernel runs below the GEMM's
// MAC rate and the im2col overhead it avoids is a small fraction, so the
// packed path wins; both paths are bitwise identical, so the gate is purely
// a speed choice.
const maxConvDirectIC = 8

// convDirectSupported reports whether the direct kernel covers the node:
// width-dense patches (DilationW == 1), at most maxConvRuns kernel rows,
// and a narrow input (see maxConvDirectIC).
func convDirectSupported(a graph.Attrs, kh, kw, ic int) bool {
	return max1(a.DilationW) == 1 && kh <= maxConvRuns && ic <= maxConvDirectIC &&
		!pointwiseConv(a, kh, kw)
}

// convFloatTiledDirect is the im2col-free tiled lowering for non-pointwise
// float convolutions.
func convFloatTiledDirect(c *Ctx) error {
	in, err := c.In(0)
	if err != nil {
		return err
	}
	w, err := c.In(1)
	if err != nil {
		return err
	}
	bias := c.OptionalIn(2)
	out := c.Outputs[0]
	a := c.Node.Attrs
	n, ih, iw, ic := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oc, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2]
	oh, ow := out.Shape[1], out.Shape[2]
	k := kh * kw * ic
	dh := max1(a.DilationH)
	wT, err := cachedIn(c, func() ([]float32, error) {
		return packTransposeF32(w.F, oc, k), nil
	})
	if err != nil {
		return err
	}
	lo, hi := actClampF32(a.Activation)
	var bf []float32
	if bias != nil {
		bf = bias.F
	}
	inF := in.F
	var runIn, runW, runLen [maxConvRuns]int
	// With the assembly tile, the x-interior pixels of a row share pixel
	// oxLo's run table (full kernel width, the same clipped kernel rows) and
	// go down in one call; everything else is the per-pixel walk below.
	oc8 := oc &^ 7
	simd := useAVX2 && oc8 > 0
	oxLo, oxHi := dwInteriorX(a, iw, kw, 1, ow)
	d := a.StrideW * ic // input offset between x-adjacent output pixels
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*a.StrideH - a.PadT
			for ox, npix := 0, 1; ox < ow; ox += npix {
				ix0 := ox*a.StrideW - a.PadL
				// Clip the kernel window to the input: kxLo/kxHi are shared
				// by every kernel row (width clipping is y-independent).
				kxLo, kxHi := 0, kw
				if ix0 < 0 {
					kxLo = -ix0
				}
				if ix0+kw > iw {
					kxHi = iw - ix0
				}
				nRuns := 0
				if kxLo < kxHi {
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky*dh
						if iy < 0 || iy >= ih {
							continue
						}
						runIn[nRuns] = ((b*ih+iy)*iw + ix0 + kxLo) * ic
						runW[nRuns] = (ky*kw + kxLo) * ic
						runLen[nRuns] = (kxHi - kxLo) * ic
						nRuns++
					}
				}
				outPix := out.F[((b*oh+oy)*ow+ox)*oc:]
				if !simd {
					convPixelF32(inF, wT, bf, outPix[:oc], &runIn, &runW, &runLen, nRuns, oc, lo, hi)
					continue
				}
				npix = interiorRun(ox, oxLo, oxHi)
				if err := convLanesF32(c.Node.Op, inF, wT, bf, outPix, runIn[:nRuns], runW[:nRuns], runLen[:nRuns], npix, d, oc8, oc, oc, lo, hi); err != nil {
					return err
				}
				for q := 0; q < npix && oc8 < oc; q++ {
					convPixelTailF32(inF[q*d:], wT, bf, outPix[q*oc:][:oc], &runIn, &runW, &runLen, nRuns, oc8, oc, lo, hi)
				}
			}
		}
	}
	return nil
}
