package ops

import (
	"mlexray/internal/graph"
)

// Register-tiled depthwise convolution kernels for the tiled backend. Each
// kernel walks channels in blocks of register accumulators seeded with the
// bias, with the activation clamp (float) or the requantization (int8) fused
// into the block store. Each kernel has one walk over the output rows. The
// x-interior pixels of a row (dwInteriorX) share one tap table — whichever
// kernel rows the row clips are clipped for all of them — so the run is
// resolved once and pixel q of it reads the same table shifted by
// q·StrideW·ic (interiorRun); every x-border pixel gets a table of its own
// (dwTapTable). The accumulation loops therefore carry no boundary branches
// and no address multiplies. Where the AVX2 tile is available (useAVX2) the
// channels [0, oc&^7) go to the assembly, eight channels a YMM register, a
// whole run in one call (dwLanesF32, dwLanesQ8); the remaining channels, and
// all of them without AVX2, run the Go pixel kernel (dwPixelF32,
// dwPixelQuant) on the same table. The per-pixel channel walk lives in its
// own small function on purpose: inlined into the node-level loop the
// register allocator has too many live values and spills the accumulators,
// which costs more than the call. Every channel sums its taps in the
// reference kernel's ascending (ky, kx) order from the bias seed, multiply
// and add rounded separately, so the float results are depthwiseFloatRef's
// bits; the quantized results are bit-exact by integer associativity.
//
// Both kernels cover the depth_multiplier == 1 layout with kernels up to
// maxDWTaps taps (every production depthwise layer qualifies); the
// dispatchers in float_opt.go / quantized.go run the reference resolver's
// loop nest for other layouts and on the reference backend (dwTiledApplies).

// maxDWTaps bounds the per-pixel tap table (covers kernels up to 5x5).
const maxDWTaps = 25

// dwTiledApplies reports whether the node runs on the register-tiled
// depthwise kernels: the tiled backend, the standard depth_multiplier == 1
// layout, a tap table of at most maxDWTaps. Everything else takes the
// reference loop nest.
func dwTiledApplies(c *Ctx) bool {
	if c.Backend != BackendTiled || max1(c.Node.Attrs.DepthMultiplier) != 1 {
		return false
	}
	w, err := c.In(1)
	return err == nil && w.Shape[1]*w.Shape[2] <= maxDWTaps
}

// dwTapTable fills tapIn/tapW with the input and weight base offsets of the
// valid taps of output pixel (oy, ox) and returns the tap count.
func dwTapTable(a graph.Attrs, oy, ox, ih, iw, ic, kh, kw, oc, dh, dw, rowBase int, tapIn, tapW *[maxDWTaps]int) int {
	nt := 0
	for ky := 0; ky < kh; ky++ {
		iy := oy*a.StrideH - a.PadT + ky*dh
		if iy < 0 || iy >= ih {
			continue
		}
		for kx := 0; kx < kw; kx++ {
			ix := ox*a.StrideW - a.PadL + kx*dw
			if ix < 0 || ix >= iw {
				continue
			}
			tapIn[nt] = ((rowBase+iy)*iw + ix) * ic
			tapW[nt] = (ky*kw + kx) * oc
			nt++
		}
	}
	return nt
}

// dwPixelF32 accumulates all oc channels of one output pixel in register
// blocks of 8/4/1 and stores the bias-seeded, clamped results.
func dwPixelF32(inF, wF, bf, outRow []float32, taps, wofs []int, oc int, lo, hi float32) {
	co := 0
	for ; co+8 <= oc; co += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		if bf != nil {
			s0, s1, s2, s3 = bf[co], bf[co+1], bf[co+2], bf[co+3]
			s4, s5, s6, s7 = bf[co+4], bf[co+5], bf[co+6], bf[co+7]
		}
		for t, ib := range taps {
			inR := inF[ib+co:][:8]
			wR := wF[wofs[t]+co:][:8]
			s0 += inR[0] * wR[0]
			s1 += inR[1] * wR[1]
			s2 += inR[2] * wR[2]
			s3 += inR[3] * wR[3]
			s4 += inR[4] * wR[4]
			s5 += inR[5] * wR[5]
			s6 += inR[6] * wR[6]
			s7 += inR[7] * wR[7]
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
		for t, ib := range taps {
			inR := inF[ib+co:][:4]
			wR := wF[wofs[t]+co:][:4]
			s0 += inR[0] * wR[0]
			s1 += inR[1] * wR[1]
			s2 += inR[2] * wR[2]
			s3 += inR[3] * wR[3]
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
		for t, ib := range taps {
			s += inF[ib+co] * wF[wofs[t]+co]
		}
		outRow[co] = clampF32(s, lo, hi)
	}
}

// dwInteriorX returns the [lo, hi) range of output-x positions whose kernel
// window is fully inside the input width; lo <= hi <= ow always, and the
// range is empty when the input is narrower than the dilated kernel or the
// left padding alone covers the row.
func dwInteriorX(a graph.Attrs, iw, kw, dw, ow int) (lo, hi int) {
	s := a.StrideW
	if a.PadL > 0 {
		lo = min((a.PadL+s-1)/s, ow)
	}
	// ox*s - PadL + (kw-1)*dw <= iw-1. A negative bound means no position
	// fits (and Go's division would round it up to zero).
	if last := iw - 1 - (kw-1)*dw + a.PadL; last >= 0 {
		hi = min(last/s+1, ow)
	}
	return lo, max(hi, lo)
}

// interiorRun is how many output pixels starting at ox share one tap (or
// run) table: the whole x-interior [oxLo, oxHi) when ox opens it, otherwise
// the one border pixel.
func interiorRun(ox, oxLo, oxHi int) int {
	if ox == oxLo && oxHi > oxLo {
		return oxHi - oxLo
	}
	return 1
}

// depthwiseFloatTiled is the float depthwise kernel of the tiled backend.
func depthwiseFloatTiled(c *Ctx) error {
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
	kh, kw, oc := w.Shape[1], w.Shape[2], w.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	dh, dw := max1(a.DilationH), max1(a.DilationW)
	lo, hi := actClampF32(a.Activation)
	var bf []float32
	if bias != nil {
		bf = bias.F
	}
	inF, wF := in.F, w.F
	var tapInA, tapWA [maxDWTaps]int // on the stack: Invoke stays allocation-free
	tapIn, tapW := &tapInA, &tapWA
	oxLo, oxHi := dwInteriorX(a, iw, kw, dw, ow)
	d := a.StrideW * ic
	oc8 := 0
	if useAVX2 {
		oc8 = oc &^ 7
	}
	var bfTail []float32
	if bf != nil {
		bfTail = bf[oc8:]
	}
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; {
				npix := interiorRun(ox, oxLo, oxHi)
				nt := dwTapTable(a, oy, ox, ih, iw, ic, kh, kw, oc, dh, dw, b*ih, tapIn, tapW)
				taps, wofs := (*tapIn)[:nt], (*tapW)[:nt]
				outPix := out.F[((b*oh+oy)*ow+ox)*oc:]
				if oc8 > 0 {
					if err := dwLanesF32(c.Node.Op, inF, wF, bf, outPix, taps, wofs, npix, d, oc8, oc, lo, hi); err != nil {
						return err
					}
				}
				for q := 0; q < npix && oc8 < oc; q++ {
					dwPixelF32(inF[q*d+oc8:], wF[oc8:], bfTail, outPix[q*oc+oc8:], taps, wofs, oc-oc8, lo, hi)
				}
				ox += npix
			}
		}
	}
	return nil
}

// dwPixelQuant accumulates all oc channels of one output pixel in register
// blocks of four int32 accumulators, fusing bias and requantization (rq, one
// lane per channel) into the store.
func dwPixelQuant(inU []uint8, wI []int8, bx []int32, outRow []uint8, taps, wofs []int, oc int, rq []rqLane, inZ, outZ, lo, hi int32) {
	co := 0
	for ; co+4 <= oc; co += 4 {
		var s0, s1, s2, s3 int32
		if bx != nil {
			s0, s1, s2, s3 = bx[co], bx[co+1], bx[co+2], bx[co+3]
		}
		for t, ib := range taps {
			inR := inU[ib+co:][:4]
			wR := wI[wofs[t]+co:][:4]
			s0 += (int32(inR[0]) - inZ) * int32(wR[0])
			s1 += (int32(inR[1]) - inZ) * int32(wR[1])
			s2 += (int32(inR[2]) - inZ) * int32(wR[2])
			s3 += (int32(inR[3]) - inZ) * int32(wR[3])
		}
		o, q := outRow[co:][:4], rq[co:][:4]
		o[0] = clampU8(outZ+q[0].apply(s0), lo, hi)
		o[1] = clampU8(outZ+q[1].apply(s1), lo, hi)
		o[2] = clampU8(outZ+q[2].apply(s2), lo, hi)
		o[3] = clampU8(outZ+q[3].apply(s3), lo, hi)
	}
	for ; co < oc; co++ {
		var s int32
		if bx != nil {
			s = bx[co]
		}
		for t, ib := range taps {
			s += (int32(inU[ib+co]) - inZ) * int32(wI[wofs[t]+co])
		}
		outRow[co] = clampU8(outZ+rq[co].apply(s), lo, hi)
	}
}

// dwQuantPlan is the per-node cached state of the tiled int8 depthwise
// kernel: the requantizer (with the historical defect or without) and, once
// the AVX2 tile first runs, its weights.
type dwQuantPlan struct {
	rq      requantizer
	logical bool
	wq      []int32 // the AVX2 tile's weights (widenI8)
}

// widenI8 lays each int8 weight into the low half of an int32 whose high
// half is zero, so one VPMADDWD against a zero-corrected input lane is one
// exact product.
func widenI8(src []int8) []int32 {
	dst := make([]int32, len(src))
	for i, v := range src {
		dst[i] = int32(uint16(v))
	}
	return dst
}

// depthwiseQuantTiled is the quantized depthwise kernel of the tiled
// backend: int32 accumulators per channel lane, bias and fixed-point
// requantization fused into the store. Bit-exact against
// depthwiseQuantImpl under the same requantizer: integer accumulation is
// associative, so the accumulator the store requantizes — and with it every
// byte the historical defect corrupts — is the loop nest's. A node with a
// multiplier outside the lane domain runs that loop nest (cachedLanePlan).
func depthwiseQuantTiled(c *Ctx, logicalShiftBug bool) error {
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
	kh, kw, oc := w.Shape[1], w.Shape[2], w.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	dh, dw := max1(a.DilationH), max1(a.DilationW)
	plan, err := cachedLanePlan(c, oc, logicalShiftBug, func(rq requantizer) *dwQuantPlan {
		return &dwQuantPlan{rq: rq, logical: logicalShiftBug}
	})
	if err != nil {
		return err
	}
	if plan == nil {
		return depthwiseQuantImpl(c, logicalShiftBug)
	}
	if plan.logical != logicalShiftBug {
		// One Ctx run under both resolvers' kernels: re-plan for this one.
		c.cache = nil
		return depthwiseQuantTiled(c, logicalShiftBug)
	}
	rq := &plan.rq
	inZ := c.InQ[0].ZeroPoint(0)
	var bx []int32
	if bias != nil {
		bx = bias.X
	}
	inU, wI := in.U, w.I
	var tapInA, tapWA [maxDWTaps]int // on the stack: Invoke stays allocation-free
	tapIn, tapW := &tapInA, &tapWA
	oxLo, oxHi := dwInteriorX(a, iw, kw, dw, ow)
	d := a.StrideW * ic
	oc8 := 0
	if useAVX2 {
		oc8 = oc &^ 7
	}
	if oc8 > 0 && plan.wq == nil {
		plan.wq = widenI8(wI)
	}
	var bxTail []int32
	if bx != nil {
		bxTail = bx[oc8:]
	}
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; {
				npix := interiorRun(ox, oxLo, oxHi)
				nt := dwTapTable(a, oy, ox, ih, iw, ic, kh, kw, oc, dh, dw, b*ih, tapIn, tapW)
				taps, wofs := (*tapIn)[:nt], (*tapW)[:nt]
				outPix := out.U[((b*oh+oy)*ow+ox)*oc:]
				if oc8 > 0 {
					if err := dwLanesQ8(c.Node.Op, inU, plan.wq, bx, rq.lanes, outPix, taps, wofs, npix, d, oc8, oc, inZ, rq.outZ, rq.lo, rq.hi); err != nil {
						return err
					}
				}
				for q := 0; q < npix && oc8 < oc; q++ {
					dwPixelQuant(inU[q*d+oc8:], wI[oc8:], bxTail, outPix[q*oc+oc8:], taps, wofs, oc-oc8, rq.chans[oc8:], inZ, rq.outZ, rq.lo, rq.hi)
				}
				ox += npix
			}
		}
	}
	return nil
}
