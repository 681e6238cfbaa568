package ops

import (
	"fmt"
	"math"

	"mlexray/internal/graph"
	"mlexray/internal/quant"
	"mlexray/internal/tensor"
)

// ---- requantization plumbing ----

// quantActRange maps a fused activation into clamp bounds in the quantized
// output domain.
func quantActRange(act graph.Activation, q *quant.Params) (lo, hi int32) {
	lo, hi = 0, 255
	z := q.ZeroPoint(0)
	switch act {
	case graph.ActReLU:
		if z > lo {
			lo = z
		}
	case graph.ActReLU6:
		if z > lo {
			lo = z
		}
		q6 := z + int32(math.Round(6/q.Scale(0)))
		if q6 < hi {
			hi = q6
		}
	}
	return lo, hi
}

func clampU8(v, lo, hi int32) uint8 {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return uint8(v)
}

// checkElems rejects a node whose input is shorter than the output the kernel
// is about to fill element for element — a malformed graph, reported instead
// of indexing past the input.
func checkElems(c *Ctx, in, out int) error {
	if in < out {
		return fmt.Errorf("ops: %v input has %d elements, output %d", c.Node.Op, in, out)
	}
	return nil
}

// convMultipliers builds the per-output-channel requantization multipliers
// M_c = inScale * wScale(c) / outScale.
func convMultipliers(inQ, wQ, outQ *quant.Params, outC int) ([]quant.Multiplier, error) {
	if inQ == nil || wQ == nil || outQ == nil {
		return nil, fmt.Errorf("ops: quantized conv missing quant params")
	}
	muls := make([]quant.Multiplier, outC)
	for c := 0; c < outC; c++ {
		m, err := quant.NewMultiplier(inQ.Scale(0) * wQ.Scale(c%len(wQ.Scales)) / outQ.Scale(0))
		if err != nil {
			return nil, fmt.Errorf("ops: channel %d multiplier: %w", c, err)
		}
		muls[c] = m
	}
	return muls, nil
}

// cachedConvMultipliers memoizes the per-channel multipliers on the Ctx —
// quant params are fixed per node, so a planned interpreter derives them
// exactly once instead of on every frame.
func cachedConvMultipliers(c *Ctx, outC int) ([]quant.Multiplier, error) {
	return cachedIn(c, func() ([]quant.Multiplier, error) {
		return convMultipliers(c.InQ[0], c.InQ[1], c.OutQ[0], outC)
	})
}

// ---- quantized convolution family ----

// convQuantRef is the reference full-integer Conv2D: uint8 activations,
// int8 weights (symmetric, per-channel), int32 bias, int32 accumulation,
// fixed-point requantization.
func convQuantRef(c *Ctx) error {
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
	inQ, outQ := c.InQ[0], c.OutQ[0]
	n, ih, iw, ic := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oc, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2]
	oh, ow := out.Shape[1], out.Shape[2]
	dh, dw := max1(a.DilationH), max1(a.DilationW)
	muls, err := cachedConvMultipliers(c, oc)
	if err != nil {
		return err
	}
	inZ := inQ.ZeroPoint(0)
	outZ := outQ.ZeroPoint(0)
	lo, hi := quantActRange(a.Activation, outQ)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for co := 0; co < oc; co++ {
					var acc int32
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
							inBase := ((b*ih+iy)*iw + ix) * ic
							wBase := ((co*kh+ky)*kw + kx) * ic
							for ci := 0; ci < ic; ci++ {
								acc += (int32(in.U[inBase+ci]) - inZ) * int32(w.I[wBase+ci])
							}
						}
					}
					if bias != nil {
						acc += bias.X[co]
					}
					out.U[((b*oh+oy)*ow+ox)*oc+co] = clampU8(outZ+muls[co].Apply(acc), lo, hi)
				}
			}
		}
	}
	return nil
}

// convQuantOpt is the optimized quantized Conv2D. The tiled backend routes
// to the packed int8 path (convQuantTiled); the reference backend runs the
// reference loop nest, as denseQuantOpt does. Same math either way — the
// optimized *conv* is correct; only depthwise has the historical defect —
// and the same bytes: integer accumulation is associative.
func convQuantOpt(c *Ctx) error {
	if c.Backend == BackendTiled {
		return convQuantTiled(c)
	}
	return convQuantRef(c)
}

// depthwiseQuantRef is the correct quantized DepthwiseConv2D (int32
// accumulator): the plain loop nest, the same on every backend.
func depthwiseQuantRef(c *Ctx) error {
	return depthwiseQuantImpl(c, false)
}

// depthwiseQuantOpt is the fixed optimized resolver's quantized
// DepthwiseConv2D: the tiled backend's register-accumulator kernel where it
// applies (dwTiledApplies), the reference loop nest on rarer layouts and the
// reference backend — bit-exact either way.
func depthwiseQuantOpt(c *Ctx) error {
	return depthwiseQuantDispatch(c, false)
}

func depthwiseQuantDispatch(c *Ctx, logicalShiftBug bool) error {
	if dwTiledApplies(c) {
		return depthwiseQuantTiled(c, logicalShiftBug)
	}
	return depthwiseQuantImpl(c, logicalShiftBug)
}

// depthwiseQuantOptBuggy is the historical optimized kernel the paper's
// per-layer diagnosis exposed (§4.4, Figure 6 left): the hand-vectorized
// requantization emits a logical right shift where an arithmetic one was
// needed, so every negative accumulator — roughly half of all pre-activation
// values — saturates to the top of the quantized range. Downstream layers
// amplify the garbage and the model emits constant or invalid outputs (0%
// accuracy), with a normalized-rMSE spike at the first DepthwiseConv2D
// layer. The reference kernel computes the same convolution with the correct
// arithmetic shift, which is exactly how the paper's resolver-diff
// methodology isolates the defect. It dispatches exactly like the fixed
// kernel: the defect sits in the requantizing store, not in the accumulation.
func depthwiseQuantOptBuggy(c *Ctx) error {
	return depthwiseQuantDispatch(c, true)
}

func depthwiseQuantImpl(c *Ctx, logicalShiftBug bool) error {
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
	inQ, outQ := c.InQ[0], c.OutQ[0]
	mult := max1(a.DepthMultiplier)
	n, ih, iw, ic := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	kh, kw, oc := w.Shape[1], w.Shape[2], w.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	dh, dw := max1(a.DilationH), max1(a.DilationW)
	muls, err := cachedConvMultipliers(c, oc)
	if err != nil {
		return err
	}
	inZ := inQ.ZeroPoint(0)
	outZ := outQ.ZeroPoint(0)
	lo, hi := quantActRange(a.Activation, outQ)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for co := 0; co < oc; co++ {
					ci := co / mult
					var acc int32
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
							acc += (int32(in.U[((b*ih+iy)*iw+ix)*ic+ci]) - inZ) * int32(w.I[(ky*kw+kx)*oc+co])
						}
					}
					if bias != nil {
						acc += bias.X[co]
					}
					var requantized int32
					if logicalShiftBug {
						requantized = muls[co].ApplyLogicalShiftBug(acc)
					} else {
						requantized = muls[co].Apply(acc)
					}
					out.U[((b*oh+oy)*ow+ox)*oc+co] = clampU8(outZ+requantized, lo, hi)
				}
			}
		}
	}
	return nil
}

// denseQuantOpt is the optimized resolver's quantized fully-connected
// kernel: a dispatcher so the tiled backend lowers dense through the packed
// int8 path. The reference backend runs the reference loop — bit-exact either
// way, since integer accumulation is associative.
func denseQuantOpt(c *Ctx) error {
	if c.Backend == BackendTiled {
		return denseQuantTiled(c)
	}
	return denseQuantRef(c)
}

// denseQuantRef is the quantized fully-connected kernel.
func denseQuantRef(c *Ctx) error {
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
	inQ, outQ := c.InQ[0], c.OutQ[0]
	n := in.Shape[0]
	inC := in.Len() / n
	outC := w.Shape[0]
	muls, err := cachedConvMultipliers(c, outC)
	if err != nil {
		return err
	}
	inZ := inQ.ZeroPoint(0)
	outZ := outQ.ZeroPoint(0)
	lo, hi := quantActRange(a.Activation, outQ)
	for b := 0; b < n; b++ {
		for co := 0; co < outC; co++ {
			var acc int32
			inBase := b * inC
			wBase := co * inC
			for k := 0; k < inC; k++ {
				acc += (int32(in.U[inBase+k]) - inZ) * int32(w.I[wBase+k])
			}
			if bias != nil {
				acc += bias.X[co]
			}
			out.U[b*outC+co] = clampU8(outZ+muls[co].Apply(acc), lo, hi)
		}
	}
	return nil
}

// ---- quantized pooling ----

// avgPoolQuantCorrect averages in the integer domain with rounding, then
// requantizes if input and output params differ.
func avgPoolQuantCorrect(c *Ctx) error {
	return avgPoolQuantImpl(c, false)
}

// avgPoolQuantBuggy is the historical quantized AveragePool2D defect the
// paper uncovered on MobileNet-v3 (§4.4, Figure 6 right): in the long-window
// accumulation path (engaged when the pooling window has at least
// buggyAvgPoolWindow taps, as in the global pools of squeeze-excite blocks)
// the division by the window size was hoisted out of the vectorized loop and
// lost, so the kernel emits the clamped window *sum* instead of the mean —
// saturating the pooled value for any active channel. Small windows —
// Inception's 3x3 pooling branch, DenseNet's 2x2 transitions — take the
// scalar path and stay correct, which is why only architectures with large
// average pools collapse (the paper's v3) while Inception survives at ±3%.
// Because this kernel is shared by both resolvers, even the reference
// resolver cannot mask the failure — matching the paper's observation that
// Mobile Quant Ref still scores 0% on v3, with rMSE peaks at each
// squeeze-excite average pool.
func avgPoolQuantBuggy(c *Ctx) error {
	return avgPoolQuantImpl(c, true)
}

// buggyAvgPoolWindow is the window area at which the defective vectorized
// accumulation path engages.
const buggyAvgPoolWindow = 32

func avgPoolQuantImpl(c *Ctx, missingDivide bool) error {
	in, err := c.In(0)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	a := c.Node.Attrs
	inQ, outQ := c.InQ[0], c.OutQ[0]
	n, ih, iw, ch := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	requant, err := cachedRequantU8(c, inQ, outQ)
	if err != nil {
		return err
	}
	lo, hi := quantActRange(a.Activation, outQ)
	// The defect lives in the long-window path only.
	bugActive := missingDivide && a.KernelH*a.KernelW >= buggyAvgPoolWindow
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for cc := 0; cc < ch; cc++ {
					var sum int32
					count := int32(0)
					for ky := 0; ky < a.KernelH; ky++ {
						iy := oy*a.StrideH - a.PadT + ky
						if iy < 0 || iy >= ih {
							continue
						}
						for kx := 0; kx < a.KernelW; kx++ {
							ix := ox*a.StrideW - a.PadL + kx
							if ix < 0 || ix >= iw {
								continue
							}
							sum += int32(in.U[((b*ih+iy)*iw+ix)*ch+cc])
							count++
						}
					}
					var avg int32
					if count > 0 {
						if bugActive {
							avg = sum // the lost division
						} else {
							avg = roundDiv(sum, count)
						}
					}
					out.U[((b*oh+oy)*ow+ox)*ch+cc] = clampU8(requant(avg), lo, hi)
				}
			}
		}
	}
	return nil
}

// cachedRequantU8 memoizes the requant closure on the Ctx so steady-state
// invokes neither rebuild the multiplier nor allocate the closure.
func cachedRequantU8(c *Ctx, inQ, outQ *quant.Params) (func(int32) int32, error) {
	return cachedIn(c, func() (func(int32) int32, error) {
		return requantU8(inQ, outQ)
	})
}

// requantU8 returns a function mapping a quantized value under inQ to the
// outQ domain. When params match it is the identity.
func requantU8(inQ, outQ *quant.Params) (func(int32) int32, error) {
	if inQ == nil || outQ == nil {
		return nil, fmt.Errorf("ops: quantized op missing activation params")
	}
	if inQ.Scale(0) == outQ.Scale(0) && inQ.ZeroPoint(0) == outQ.ZeroPoint(0) {
		return func(v int32) int32 { return v }, nil
	}
	m, err := quant.NewMultiplier(inQ.Scale(0) / outQ.Scale(0))
	if err != nil {
		return nil, err
	}
	inZ, outZ := inQ.ZeroPoint(0), outQ.ZeroPoint(0)
	return func(v int32) int32 { return outZ + m.Apply(v-inZ) }, nil
}

func roundDiv(a, b int32) int32 {
	if a >= 0 {
		return (a + b/2) / b
	}
	return -((-a + b/2) / b)
}

func maxPoolQuant(c *Ctx) error {
	in, err := c.In(0)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	a := c.Node.Attrs
	inQ, outQ := c.InQ[0], c.OutQ[0]
	requant, err := cachedRequantU8(c, inQ, outQ)
	if err != nil {
		return err
	}
	n, ih, iw, ch := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	lo, hi := quantActRange(a.Activation, outQ)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for cc := 0; cc < ch; cc++ {
					best := int32(-1)
					for ky := 0; ky < a.KernelH; ky++ {
						iy := oy*a.StrideH - a.PadT + ky
						if iy < 0 || iy >= ih {
							continue
						}
						for kx := 0; kx < a.KernelW; kx++ {
							ix := ox*a.StrideW - a.PadL + kx
							if ix < 0 || ix >= iw {
								continue
							}
							if v := int32(in.U[((b*ih+iy)*iw+ix)*ch+cc]); v > best {
								best = v
							}
						}
					}
					out.U[((b*oh+oy)*ow+ox)*ch+cc] = clampU8(requant(best), lo, hi)
				}
			}
		}
	}
	return nil
}

// meanQuant is the global spatial mean in the integer domain. This kernel
// was never buggy — which is exactly why MobileNet-v2 (whose head uses Mean)
// passes per-layer validation under the reference resolver while v3 (whose
// SE blocks use AvgPool2D) does not.
func meanQuant(c *Ctx) error {
	in, err := c.In(0)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	inQ, outQ := c.InQ[0], c.OutQ[0]
	requant, err := cachedRequantU8(c, inQ, outQ)
	if err != nil {
		return err
	}
	n, ih, iw, ch := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	area := int32(ih * iw)
	for b := 0; b < n; b++ {
		for cc := 0; cc < ch; cc++ {
			var sum int32
			for y := 0; y < ih; y++ {
				for x := 0; x < iw; x++ {
					sum += int32(in.U[((b*ih+y)*iw+x)*ch+cc])
				}
			}
			out.U[b*ch+cc] = clampU8(requant(roundDiv(sum, area)), 0, 255)
		}
	}
	return nil
}

func padQuant(c *Ctx) error {
	in, err := c.In(0)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	// Padding fills with the zero point, which represents real 0.
	zp := uint8(0)
	if c.OutQ[0] != nil {
		zp = uint8(c.OutQ[0].ZeroPoint(0))
	}
	for i := range out.U {
		out.U[i] = zp
	}
	if done, err := padRows4D(in, out, c.Node.Attrs.Paddings, func(src, dst, n int) {
		copy(out.U[dst:dst+n], in.U[src:src+n])
	}); done || err != nil {
		return err
	}
	return padCopy(c, in, out, c.Node.Attrs.Paddings, func(src, dst int) {
		out.U[dst] = in.U[src]
	})
}

// ---- quantized elementwise ----

// addQuantPlan is addQuant's per-node cached state. Each operand's rescale
// into the output domain depends on one byte only, so it is tabulated:
// out = clamp(t1[a] + t2[b]) with t1[q] = zo + m1.Apply(q-z1) and
// t2[q] = m2.Apply(q-z2) — the per-element expression, regrouped (int32
// addition is associative). combine is the broadcast path's view of the same
// tables, built once so a steady-state invoke allocates nothing.
type addQuantPlan struct {
	t1, t2  [256]int32
	lo, hi  int32
	combine func(a, b uint8) uint8
}

func addQuant(c *Ctx) error {
	x, err := c.In(0)
	if err != nil {
		return err
	}
	y, err := c.In(1)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	plan, err := cachedIn(c, func() (*addQuantPlan, error) {
		q1, q2, qo := c.InQ[0], c.InQ[1], c.OutQ[0]
		if q1 == nil || q2 == nil || qo == nil {
			return nil, fmt.Errorf("ops: quantized add missing params")
		}
		m1, err := quant.NewMultiplier(q1.Scale(0) / qo.Scale(0))
		if err != nil {
			return nil, err
		}
		m2, err := quant.NewMultiplier(q2.Scale(0) / qo.Scale(0))
		if err != nil {
			return nil, err
		}
		z1, z2, zo := q1.ZeroPoint(0), q2.ZeroPoint(0), qo.ZeroPoint(0)
		p := &addQuantPlan{}
		p.lo, p.hi = quantActRange(c.Node.Attrs.Activation, qo)
		for q := int32(0); q < 256; q++ {
			p.t1[q] = zo + m1.Apply(q-z1)
			p.t2[q] = m2.Apply(q - z2)
		}
		p.combine = func(a, b uint8) uint8 { return clampU8(p.t1[a]+p.t2[b], p.lo, p.hi) }
		return p, nil
	})
	if err != nil {
		return err
	}
	if x.Len() != y.Len() {
		return quantBroadcast(c, x, y, out, plan.combine)
	}
	if err := checkElems(c, x.Len(), len(out.U)); err != nil {
		return err
	}
	xs, ys := x.U[:len(out.U)], y.U[:len(out.U)]
	for i := range out.U {
		out.U[i] = clampU8(plan.t1[xs[i]]+plan.t2[ys[i]], plan.lo, plan.hi)
	}
	return nil
}

func mulQuant(c *Ctx) error {
	x, err := c.In(0)
	if err != nil {
		return err
	}
	y, err := c.In(1)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	combine, err := cachedIn(c, func() (func(a, b uint8) uint8, error) {
		q1, q2, qo := c.InQ[0], c.InQ[1], c.OutQ[0]
		if q1 == nil || q2 == nil || qo == nil {
			return nil, fmt.Errorf("ops: quantized mul missing params")
		}
		m, err := quant.NewMultiplier(q1.Scale(0) * q2.Scale(0) / qo.Scale(0))
		if err != nil {
			return nil, err
		}
		z1, z2, zo := q1.ZeroPoint(0), q2.ZeroPoint(0), qo.ZeroPoint(0)
		lo, hi := quantActRange(c.Node.Attrs.Activation, qo)
		return func(a, b uint8) uint8 {
			v := zo + m.Apply((int32(a)-z1)*(int32(b)-z2))
			return clampU8(v, lo, hi)
		}, nil
	})
	if err != nil {
		return err
	}
	return quantBroadcast(c, x, y, out, combine)
}

func quantBroadcast(c *Ctx, x, y, out *tensor.Tensor, combine func(a, b uint8) uint8) error {
	if x.Len() == y.Len() {
		if err := checkElems(c, x.Len(), len(out.U)); err != nil {
			return err
		}
		for i := range out.U {
			out.U[i] = combine(x.U[i], y.U[i])
		}
		return nil
	}
	if x.Rank() != 4 {
		return fmt.Errorf("ops: %v broadcast needs rank-4 lhs, got %v", c.Node.Op, x.Shape)
	}
	n, h, w, ch := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if y.Len() != n*ch {
		return fmt.Errorf("ops: %v cannot broadcast %v with %v", c.Node.Op, x.Shape, y.Shape)
	}
	for b := 0; b < n; b++ {
		for i := 0; i < h*w; i++ {
			base := (b*h*w + i) * ch
			for cc := 0; cc < ch; cc++ {
				out.U[base+cc] = combine(x.U[base+cc], y.U[b*ch+cc])
			}
		}
	}
	return nil
}

func concatQuant(c *Ctx) error {
	out := c.Outputs[0]
	qo := c.OutQ[0]
	// Fast path: all inputs share the output params; raw byte concat.
	same := true
	for i := range c.Inputs {
		qi := c.InQ[i]
		if qi == nil || qo == nil || qi.Scale(0) != qo.Scale(0) || qi.ZeroPoint(0) != qo.ZeroPoint(0) {
			same = false
			break
		}
	}
	if same {
		return concatGeneric(c, func(t *tensor.Tensor) []uint8 { return t.U }, func(dst []uint8, i int, src []uint8, j int) {
			dst[i] = src[j]
		})
	}
	// Slow path: requantize each input into the output domain first.
	requants, err := cachedIn(c, func() ([]func(int32) int32, error) {
		rs := make([]func(int32) int32, len(c.Inputs))
		for i := range c.Inputs {
			r, err := requantU8(c.InQ[i], qo)
			if err != nil {
				return nil, err
			}
			rs[i] = r
		}
		return rs, nil
	})
	if err != nil {
		return err
	}
	// Identify which input each output element came from by replaying the
	// concat walk.
	axis := c.Node.Attrs.Axis
	outer := 1
	for d := 0; d < axis; d++ {
		outer *= out.Shape[d]
	}
	inner := 1
	for d := axis + 1; d < len(out.Shape); d++ {
		inner *= out.Shape[d]
	}
	axisOff := 0
	for ii, in := range c.Inputs {
		inAxis := in.Shape[axis]
		for o := 0; o < outer; o++ {
			for a := 0; a < inAxis; a++ {
				srcBase := (o*inAxis + a) * inner
				dstBase := (o*out.Shape[axis] + axisOff + a) * inner
				for i := 0; i < inner; i++ {
					out.U[dstBase+i] = clampU8(requants[ii](int32(in.U[srcBase+i])), 0, 255)
				}
			}
		}
		axisOff += inAxis
	}
	return nil
}

// ---- quantized activations ----

func reluQuant(c *Ctx) error {
	return clampActQuant(c, graph.ActReLU)
}

func relu6Quant(c *Ctx) error {
	return clampActQuant(c, graph.ActReLU6)
}

func clampActQuant(c *Ctx, act graph.Activation) error {
	in, err := c.In(0)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	requant, err := cachedRequantU8(c, c.InQ[0], c.OutQ[0])
	if err != nil {
		return err
	}
	lo, hi := quantActRange(act, c.OutQ[0])
	for i := range out.U {
		out.U[i] = clampU8(requant(int32(in.U[i])), lo, hi)
	}
	return nil
}

// lutKernel builds a 256-entry lookup-table kernel for a unary function —
// exactly how TFLite implements quantized hard-swish and logistic.
func lutKernel(f func(float64) float64) Kernel {
	return func(c *Ctx) error {
		in, err := c.In(0)
		if err != nil {
			return err
		}
		out := c.Outputs[0]
		lut, err := cachedIn(c, func() (*[256]uint8, error) {
			inQ, outQ := c.InQ[0], c.OutQ[0]
			if inQ == nil || outQ == nil {
				return nil, fmt.Errorf("ops: quantized %v missing params", c.Node.Op)
			}
			var t [256]uint8
			for q := 0; q < 256; q++ {
				real := inQ.DequantizeU8(uint8(q), 0)
				t[q] = outQ.QuantizeU8(f(real), 0)
			}
			return &t, nil
		})
		if err != nil {
			return err
		}
		for i := range out.U {
			out.U[i] = lut[in.U[i]]
		}
		return nil
	}
}

// softmaxQuant dequantizes, runs the stable float softmax, and requantizes —
// the hybrid approach TFLite uses for ops where integer-only math would cost
// accuracy.
func softmaxQuant(c *Ctx) error {
	in, err := c.In(0)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	inQ, outQ := c.InQ[0], c.OutQ[0]
	if inQ == nil || outQ == nil {
		return fmt.Errorf("ops: quantized softmax missing params")
	}
	last := in.Shape[len(in.Shape)-1]
	rows := in.Len() / last
	buf := c.Arena.F64(last)
	for r := 0; r < rows; r++ {
		base := r * last
		mx := math.Inf(-1)
		for i := 0; i < last; i++ {
			buf[i] = inQ.DequantizeU8(in.U[base+i], 0)
			if buf[i] > mx {
				mx = buf[i]
			}
		}
		var sum float64
		for i := 0; i < last; i++ {
			buf[i] = math.Exp(buf[i] - mx)
			sum += buf[i]
		}
		for i := 0; i < last; i++ {
			out.U[base+i] = outQ.QuantizeU8(buf[i]/sum, 0)
		}
	}
	return nil
}

// ---- boundary ops ----

func quantizeKernel(c *Ctx) error {
	in, err := c.In(0)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	q := c.OutQ[0]
	if q == nil {
		return fmt.Errorf("ops: Quantize output has no params")
	}
	if in.DType != tensor.F32 {
		return fmt.Errorf("ops: Quantize input must be f32, got %v", in.DType)
	}
	if err := checkElems(c, len(in.F), len(out.U)); err != nil {
		return err
	}
	// Params.QuantizeU8 with the per-tensor scale and zero point read once.
	zp, scale := float64(q.ZeroPoint(0)), q.Scale(0)
	for i, v := range in.F[:len(out.U)] {
		r := math.Round(zp + float64(v)/scale)
		if r < 0 {
			r = 0
		}
		if r > 255 {
			r = 255
		}
		out.U[i] = uint8(r)
	}
	return nil
}

func dequantizeKernel(c *Ctx) error {
	in, err := c.In(0)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	q := c.InQ[0]
	if q == nil {
		return fmt.Errorf("ops: Dequantize input has no params")
	}
	if in.DType != tensor.U8 {
		return fmt.Errorf("ops: Dequantize input must be u8, got %v", in.DType)
	}
	if err := checkElems(c, len(in.U), len(out.F)); err != nil {
		return err
	}
	for i := range out.F {
		out.F[i] = float32(q.DequantizeU8(in.U[i], 0))
	}
	return nil
}

// resizeBilinearQuant interpolates quantized values directly; input and
// output share params by construction (the converter keeps them equal), so
// interpolation in the integer domain is exact up to rounding.
func resizeBilinearQuant(c *Ctx) error {
	in, err := c.In(0)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	return resizeBilinearGeneric(c, in, out, func(src []int, weights []float32, dst int) {
		var acc float32
		for i, s := range src {
			acc += float32(in.U[s]) * weights[i]
		}
		out.U[dst] = uint8(acc + 0.5)
	})
}

// ---- hybrid kernels (int8 weights, float activations) ----

// denseHybrid implements dynamic-range quantization: float inputs, int8
// symmetric weights dequantized on the fly, float bias.
func denseHybrid(c *Ctx) error {
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
	wQ := c.InQ[1]
	if wQ == nil {
		return fmt.Errorf("ops: hybrid dense weights missing params")
	}
	a := c.Node.Attrs
	n := in.Shape[0]
	inC := in.Len() / n
	outC := w.Shape[0]
	for b := 0; b < n; b++ {
		for co := 0; co < outC; co++ {
			var acc float64
			inBase := b * inC
			wBase := co * inC
			for k := 0; k < inC; k++ {
				acc += float64(in.F[inBase+k]) * float64(w.I[wBase+k])
			}
			acc *= wQ.Scale(co % len(wQ.Scales))
			if bias != nil {
				acc += float64(bias.F[co])
			}
			out.F[b*outC+co] = applyActF32(a.Activation, float32(acc))
		}
	}
	return nil
}

// embeddingHybrid looks up int8 table rows and dequantizes.
func embeddingHybrid(c *Ctx) error {
	ids, err := c.In(0)
	if err != nil {
		return err
	}
	table, err := c.In(1)
	if err != nil {
		return err
	}
	out := c.Outputs[0]
	wQ := c.InQ[1]
	if wQ == nil {
		return fmt.Errorf("ops: hybrid embedding table missing params")
	}
	vocab, dim := table.Shape[0], table.Shape[1]
	scale := float32(wQ.Scale(0))
	for i, id := range ids.X {
		if id < 0 || int(id) >= vocab {
			return fmt.Errorf("ops: embedding id %d outside vocab %d", id, vocab)
		}
		row := table.I[int(id)*dim : (int(id)+1)*dim]
		for j, v := range row {
			out.F[i*dim+j] = float32(v) * scale
		}
	}
	return nil
}

// selfAttentionHybrid dequantizes the four int8 projection matrices and runs
// the float attention computation.
func selfAttentionHybrid(c *Ctx) error {
	x, err := c.In(0)
	if err != nil {
		return err
	}
	if len(c.Inputs) < 9 {
		return fmt.Errorf("ops: SelfAttention needs x + 4 weights + 4 biases, got %d inputs", len(c.Inputs))
	}
	var weights, biases [4][]float32
	for i := 0; i < 4; i++ {
		wt := c.Inputs[1+2*i]
		wq := c.InQ[1+2*i]
		if wt.DType != tensor.I8 || wq == nil {
			return fmt.Errorf("ops: hybrid attention weight %d not int8-with-params", i)
		}
		deq := c.Arena.F32(wt.Len())
		for j, v := range wt.I {
			ch := 0
			if wq.IsPerChannel() {
				ch = j / wt.Shape[1]
			}
			deq[j] = float32(float64(v) * wq.Scale(ch))
		}
		weights[i] = deq
		biases[i] = c.Inputs[2+2*i].F
	}
	return attentionCompute(c, x, weights, biases)
}
