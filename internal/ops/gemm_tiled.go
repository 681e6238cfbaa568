package ops

import (
	"fmt"
	"math"

	"mlexray/internal/graph"
	"mlexray/internal/quant"
	"mlexray/internal/tensor"
)

// The tiled backend: register-tiled GEMM micro-kernels with fused epilogues
// over contiguous row operands, mirroring how TFLite's production path
// actually earns its speed.
//
// Layout. Both operands are contiguous k-length rows. The Go float kernels
// use them in place: the [oc, k] row-major weight tensor already is the
// right-side row layout, and the left side is either the activation matrix
// itself (pointwise convolutions, dense) or the arena im2col buffer. The int8
// path genuinely packs: weights are packed two columns to an int64 row panel
// once per node and cached on the Ctx (see gemmTiledFusedQuant), and
// activations are zero-corrected into an int16 left panel per invoke. For
// the scalar Go kernels an interleaved panel costs more in packing than it
// returns in locality, and row operands keep the inner loops free of bounds
// checks via equal-length re-slicing. The AVX2 tile (gemmFloatTiled) wants
// eight adjacent output channels in one load, so it reads the transposed
// [k][oc] panel — packed once per node and cached like the int8 panel, never
// per invoke; the left operand is still used in place.
//
// Micro-kernels. Float runs a 1x4 column-quad tile in Go (see
// gemmTiledFusedF32 for why wider row tiles lose there) and a 4x8 tile in
// assembly where AVX2 is available (simd_amd64.s); int8 runs a 4x2 tile as
// four int64 pair accumulators, one multiply per two MACs. Each float
// accumulator is seeded with its bias and sums its k terms in ascending
// order, multiply and add rounded separately, in every variant — which is
// what makes the Go and assembly kernels bit-identical — but the tiled float
// contract does NOT promise that order against the reference backend (see
// BackendTiled): validators must bound it, not expect equality.
//
// Epilogue fusion. Bias add + activation (float) and bias add +
// requantization + clamp (int8) happen in the tile store. The reference
// backend's separate product buffer, its zeroing pass and its re-read are
// gone, and pointwise (1x1 stride-1 unpadded) convolutions skip im2col
// entirely: the input activation matrix already IS the left operand.

// padUp rounds x up to a multiple of m (m a power of two is not required).
func padUp(x, m int) int {
	r := x % m
	if r == 0 {
		return x
	}
	return x + m - r
}

// zeroF32 clears dst.
func zeroF32(dst []float32) {
	for i := range dst {
		dst[i] = 0
	}
}

// zeroI16 clears dst.
func zeroI16(dst []int16) {
	for i := range dst {
		dst[i] = 0
	}
}

// actClampF32 lowers the fused activation to a [lo, hi] clamp computed once
// per kernel call, so the tile store needs two branchless selects instead of
// a per-element switch. NaN survives the clamp (min/max propagate it) and
// ActNone's infinite bounds leave every value untouched.
func actClampF32(act graph.Activation) (lo, hi float32) {
	switch act {
	case graph.ActReLU:
		return 0, float32(math.Inf(1))
	case graph.ActReLU6:
		return 0, 6
	}
	return float32(math.Inf(-1)), float32(math.Inf(1))
}

// clampF32 clamps v to [lo, hi]; NaN passes through (both compares false).
// Deliberately compare-and-branch: the builtin float min/max carry Go's
// -0/NaN ordering semantics and lower to a ~10-uop MINSS/POR fixup sequence,
// measurably slower here than two well-predicted branches.
func clampF32(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// gemmTiledFusedF32 computes out[i,j] = act(sum_p a[i,p]*b[j,p] + bias[j])
// over the row-major left operand a (m rows of k; any pad rows a packed
// panel carries are simply never read) and the packed right panel b. out is
// the dense m x n result. bias may be nil.
//
// The register tile is 1x4: one activation row against four weight rows,
// four bias-seeded accumulator chains. A wider 4x2 tile (eight chains,
// fewer loads per MAC) was raced against this shape on every layer of the
// benchmark model and lost by 15-20% — the deployment hosts issue scalar FP
// adds and muls on separate pipes, so the column quad's extra loads are
// free while its shorter dependency windows retire faster. The k loop is
// unrolled by two (eight independent FMAs per branch), and k == 8 — the
// bottleneck depth of every pointwise expand layer, where loop overhead
// dominates eight-term dots — takes a fully straight-line body with the
// activation row held in registers. Each output element accumulates
// bias-first then p ascending in every variant, so neither the tile shape
// nor the unrolling is visible even at the bit level.
func gemmTiledFusedF32(a, b, bias, out []float32, m, n, k int, act graph.Activation) {
	if k == 8 {
		gemmTiledFusedF32K8(a, b, bias, out, m, n, act)
		return
	}
	lo, hi := actClampF32(act)
	for i := 0; i < m; i++ {
		ai := a[i*k : i*k+k]
		oi := out[i*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			// Equal-length re-slices let the compiler drop every bounds
			// check in the 4-MAC inner loop.
			b0 := b[j*k:][:len(ai)]
			b1 := b[(j+1)*k:][:len(ai)]
			b2 := b[(j+2)*k:][:len(ai)]
			b3 := b[(j+3)*k:][:len(ai)]
			var s0, s1, s2, s3 float32
			if bias != nil {
				s0, s1, s2, s3 = bias[j], bias[j+1], bias[j+2], bias[j+3]
			}
			p := 0
			for ; p+2 <= len(ai); p += 2 {
				av0, av1 := ai[p], ai[p+1]
				s0 += av0 * b0[p]
				s1 += av0 * b1[p]
				s2 += av0 * b2[p]
				s3 += av0 * b3[p]
				s0 += av1 * b0[p+1]
				s1 += av1 * b1[p+1]
				s2 += av1 * b2[p+1]
				s3 += av1 * b3[p+1]
			}
			if p < len(ai) {
				av := ai[p]
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			oi[j] = clampF32(s0, lo, hi)
			oi[j+1] = clampF32(s1, lo, hi)
			oi[j+2] = clampF32(s2, lo, hi)
			oi[j+3] = clampF32(s3, lo, hi)
		}
		for ; j < n; j++ {
			// Column tail: single-chain dot; only real (non-pad) b rows are
			// ever touched.
			bj := b[j*k:][:len(ai)]
			var s float32
			if bias != nil {
				s = bias[j]
			}
			for p, av := range ai {
				s += av * bj[p]
			}
			oi[j] = clampF32(s, lo, hi)
		}
	}
}

// gemmTiledFusedF32K8 is gemmTiledFusedF32 specialized to k == 8: the eight
// activation values of the row live in registers across every column quad,
// and each quad's 32 MACs run branch-free. Identical accumulation order to
// the general kernel, measured ~25% faster on the k == 8 expand layers.
func gemmTiledFusedF32K8(a, b, bias, out []float32, m, n int, act graph.Activation) {
	lo, hi := actClampF32(act)
	for i := 0; i < m; i++ {
		ai := a[i*8 : i*8+8]
		a0, a1, a2, a3 := ai[0], ai[1], ai[2], ai[3]
		a4, a5, a6, a7 := ai[4], ai[5], ai[6], ai[7]
		oi := out[i*n:][:n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*8:][:8]
			b1 := b[(j+1)*8:][:8]
			b2 := b[(j+2)*8:][:8]
			b3 := b[(j+3)*8:][:8]
			var s0, s1, s2, s3 float32
			if bias != nil {
				s0, s1, s2, s3 = bias[j], bias[j+1], bias[j+2], bias[j+3]
			}
			s0 += a0 * b0[0]
			s0 += a1 * b0[1]
			s0 += a2 * b0[2]
			s0 += a3 * b0[3]
			s0 += a4 * b0[4]
			s0 += a5 * b0[5]
			s0 += a6 * b0[6]
			s0 += a7 * b0[7]
			s1 += a0 * b1[0]
			s1 += a1 * b1[1]
			s1 += a2 * b1[2]
			s1 += a3 * b1[3]
			s1 += a4 * b1[4]
			s1 += a5 * b1[5]
			s1 += a6 * b1[6]
			s1 += a7 * b1[7]
			s2 += a0 * b2[0]
			s2 += a1 * b2[1]
			s2 += a2 * b2[2]
			s2 += a3 * b2[3]
			s2 += a4 * b2[4]
			s2 += a5 * b2[5]
			s2 += a6 * b2[6]
			s2 += a7 * b2[7]
			s3 += a0 * b3[0]
			s3 += a1 * b3[1]
			s3 += a2 * b3[2]
			s3 += a3 * b3[3]
			s3 += a4 * b3[4]
			s3 += a5 * b3[5]
			s3 += a6 * b3[6]
			s3 += a7 * b3[7]
			oi[j] = clampF32(s0, lo, hi)
			oi[j+1] = clampF32(s1, lo, hi)
			oi[j+2] = clampF32(s2, lo, hi)
			oi[j+3] = clampF32(s3, lo, hi)
		}
		for ; j < n; j++ {
			bj := b[j*8:][:8]
			var s float32
			if bias != nil {
				s = bias[j]
			}
			s += a0 * bj[0]
			s += a1 * bj[1]
			s += a2 * bj[2]
			s += a3 * bj[3]
			s += a4 * bj[4]
			s += a5 * bj[5]
			s += a6 * bj[6]
			s += a7 * bj[7]
			oi[j] = clampF32(s, lo, hi)
		}
	}
}

// gemmTiledFusedQuant is the int8 fast path: int16 zero-corrected activations
// against the pair-packed weight panel, with the bias add, fixed-point
// requantization and clamp fused into the tile store. One 64-bit multiply
// feeds two output columns: panel entry p of column pair (j, j+1) is
// w[j][p] + w[j+1][p]<<32, so an accumulator S = sum_p a[p]*entry[p] is
// L + H<<32 with L and H the two columns' exact int32 dot products, split
// back in pairSplit. That holds while |L| < 2^31, i.e. 255*128*k < 2^31 —
// cachedQuantGemmPlan refuses deeper reductions. Integer addition is
// associative, so this order is bit-exact against the reference kernel. a has
// padUp(m,4) rows of k (pad rows zero); wp has padUp(n,2)/2 rows of k; bx and
// muls are padded to padUp(n,2). out[outBase:] receives the m x n block.
func gemmTiledFusedQuant(a []int16, wp []int64, bx []int32, out []uint8, outBase, m, n, k int, muls []quant.Multiplier, outZ, lo, hi int32) {
	for i0 := 0; i0 < m; i0 += 4 {
		a0s := a[i0*k : i0*k+k]
		a1s := a[(i0+1)*k:][:len(a0s)]
		a2s := a[(i0+2)*k:][:len(a0s)]
		a3s := a[(i0+3)*k:][:len(a0s)]
		rows := min(4, m-i0)
		for j0 := 0; j0 < n; j0 += 2 {
			ws := wp[j0/2*k:][:len(a0s)]
			var s0, s1, s2, s3 int64
			for p, w := range ws {
				s0 += int64(a0s[p]) * w
				s1 += int64(a1s[p]) * w
				s2 += int64(a2s[p]) * w
				s3 += int64(a3s[p]) * w
			}
			l0, h0 := pairSplit(s0)
			l1, h1 := pairSplit(s1)
			l2, h2 := pairSplit(s2)
			l3, h3 := pairSplit(s3)
			b0, b1, m0, m1 := bx[j0], bx[j0+1], muls[j0], muls[j0+1]
			o := outBase + i0*n + j0
			if rows == 4 && j0+2 <= n {
				// Full tile: requantize and store straight from the registers.
				out[o] = clampU8(outZ+m0.Apply(l0+b0), lo, hi)
				out[o+1] = clampU8(outZ+m1.Apply(h0+b1), lo, hi)
				out[o+n] = clampU8(outZ+m0.Apply(l1+b0), lo, hi)
				out[o+n+1] = clampU8(outZ+m1.Apply(h1+b1), lo, hi)
				out[o+2*n] = clampU8(outZ+m0.Apply(l2+b0), lo, hi)
				out[o+2*n+1] = clampU8(outZ+m1.Apply(h2+b1), lo, hi)
				out[o+3*n] = clampU8(outZ+m0.Apply(l3+b0), lo, hi)
				out[o+3*n+1] = clampU8(outZ+m1.Apply(h3+b1), lo, hi)
				continue
			}
			// Edge tile: rows past m and the pad column of an odd n were
			// computed on zero operands and are not stored.
			acc := [4][2]int32{{l0, h0}, {l1, h1}, {l2, h2}, {l3, h3}}
			for r, v := range acc[:rows] {
				out[o+r*n] = clampU8(outZ+m0.Apply(v[0]+b0), lo, hi)
				if j0+1 < n {
					out[o+r*n+1] = clampU8(outZ+m1.Apply(v[1]+b1), lo, hi)
				}
			}
		}
	}
}

// pairSplit recovers the two int32 dot products of a pair accumulator
// S = L + H<<32: L is the low word read as signed, and removing it leaves
// exactly H<<32.
func pairSplit(s int64) (l, h int32) {
	l = int32(s)
	return l, int32((s - int64(l)) >> 32)
}

// maxQuantGemmK is the deepest reduction the pair accumulator holds exactly:
// 255*128*65536 < 2^31.
const maxQuantGemmK = 65536

// packPairI8 packs the n x k int8 weight matrix into padUp(n,2)/2 pair rows
// of k int64 entries, row j/2 holding w[j][p] + w[j+1][p]<<32 (a zero column
// pads an odd n). Done once per node and cached.
func packPairI8(src []int8, n, k int) []int64 {
	dst := make([]int64, padUp(n, 2)/2*k)
	for j := 0; j < n; j++ {
		row := dst[j/2*k:][:k]
		shift := uint(j%2) * 32
		for p, v := range src[j*k:][:k] {
			row[p] += int64(v) << shift
		}
	}
	return dst
}

// pointwiseConv reports whether the convolution is a pure 1x1 stride-1
// unpadded mapping, in which case the im2col matrix is the input activation
// matrix itself and the lowering can skip materializing it.
func pointwiseConv(a graph.Attrs, kh, kw int) bool {
	return kh == 1 && kw == 1 &&
		a.StrideH == 1 && a.StrideW == 1 &&
		a.PadT == 0 && a.PadB == 0 && a.PadL == 0 && a.PadR == 0
}

// convFloatTiled is Conv2D lowered through the fused tiled path: pointwise
// convolutions feed the input straight into the micro-kernel, everything
// else goes through im2col into the arena left operand; the [oc, k]
// row-major weight tensor already is the right-side row layout the kernel
// wants, so it is used in place; bias and activation are fused into the
// tile store.
func convFloatTiled(c *Ctx) error {
	if w, err := c.In(1); err == nil && convDirectSupported(c.Node.Attrs, w.Shape[1], w.Shape[2], w.Shape[3]) {
		return convFloatTiledDirect(c)
	}
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
	n := in.Shape[0]
	oc, kh, kw, ic := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	mb := oh * ow
	m := n * mb
	k := kh * kw * ic
	var cols []float32
	if pointwiseConv(a, kh, kw) {
		cols = in.F // zero-copy: the input already is the left operand
	} else {
		cols = c.Arena.F32(m * k)
		for b := 0; b < n; b++ {
			im2col(in, b, a, kh, kw, oh, ow, cols[b*mb*k:(b+1)*mb*k])
		}
	}
	var biasF []float32
	if bias != nil {
		biasF = bias.F
	}
	return gemmFloatTiled(c, cols, w.F, biasF, out.F, m, oc, k, a.Activation)
}

// denseFloatTiled is the fully-connected layer through the fused row
// kernel; like conv, the [outC, inC] weight tensor is used in place.
func denseFloatTiled(c *Ctx) error {
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
	n := in.Shape[0]
	inC := in.Len() / n
	outC := w.Shape[0]
	var biasF []float32
	if bias != nil {
		biasF = bias.F
	}
	return gemmFloatTiled(c, in.F, w.F, biasF, out.F, n, outC, inC, a.Activation)
}

// gemmFloatTiled is the fused float GEMM of one Conv2D or Dense node. With
// the AVX2 tile available, the lane-aligned columns (n rounded down to eight)
// run in assembly against the [k][n8] weight panel — packed once per node and
// cached on the Ctx, so a steady-state invoke packs nothing — and the n%8
// column tail runs the Go single-chain dot over the in-place weight rows.
// Every output's chain is independent (bias, then p ascending, multiply and
// add rounded separately), so which code computed a column is invisible at
// the bit level. Otherwise the whole GEMM is gemmTiledFusedF32.
func gemmFloatTiled(c *Ctx, a, w, bias, out []float32, m, n, k int, act graph.Activation) error {
	n8 := n &^ 7
	if !useAVX2 || n8 == 0 || m < 1 || k < 1 {
		gemmTiledFusedF32(a, w, bias, out, m, n, k, act)
		return nil
	}
	panel, err := cachedIn(c, func() ([]float32, error) {
		return packTransposeF32(w, n8, k), nil
	})
	if err != nil {
		return err
	}
	lo, hi := actClampF32(act)
	if err := gemmLanesF32(c.Node.Op, a, panel, bias, out, m, n8, k, n, lo, hi); err != nil {
		return err
	}
	for i := 0; i < m && n8 < n; i++ {
		ai := a[i*k : i*k+k]
		for j := n8; j < n; j++ {
			bj := w[j*k:][:len(ai)]
			var s float32
			if bias != nil {
				s = bias[j]
			}
			for p, av := range ai {
				s += av * bj[p]
			}
			out[i*n+j] = clampF32(s, lo, hi)
		}
	}
	return nil
}

// quantGemmPlan is the per-node cached state of the tiled quantized path:
// the pair-packed weight panel plus requantization multipliers and bias, both
// padded to the panel's even column count so the tile store never branches on
// a missing bias or an odd last column.
type quantGemmPlan struct {
	muls []quant.Multiplier
	bias []int32
	wp   []int64
}

func cachedQuantGemmPlan(c *Ctx, w, bias *tensor.Tensor, outC, k int) (quantGemmPlan, error) {
	return cachedIn(c, func() (quantGemmPlan, error) {
		if k > maxQuantGemmK {
			return quantGemmPlan{}, fmt.Errorf("ops: %v reduces over %d inputs, the tiled int8 kernel is exact up to %d (run it on the reference backend)",
				c.Node.Op, k, maxQuantGemmK)
		}
		muls, err := convMultipliers(c.InQ[0], c.InQ[1], c.OutQ[0], outC)
		if err != nil {
			return quantGemmPlan{}, err
		}
		if outC%2 == 1 {
			muls = append(muls, muls[0]) // the pad column's result is never stored
		}
		plan := quantGemmPlan{muls: muls, bias: make([]int32, len(muls)), wp: packPairI8(w.I, outC, k)}
		if bias != nil {
			copy(plan.bias, bias.X)
		}
		return plan, nil
	})
}

// convQuantTiled is the quantized Conv2D through the int8 packed path:
// zero-corrected int16 im2col into the padded left panel, the cached
// pair-packed int64 weight panel (two columns an entry), int64 pair
// accumulators split into their two int32 dot products at the store,
// requantization fused into the store. Bit-exact against
// convQuantRef/convQuantOpt by construction.
func convQuantTiled(c *Ctx) error {
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
	oc, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2]
	ic := in.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	m := oh * ow
	k := kh * kw * ic
	plan, err := cachedQuantGemmPlan(c, w, bias, oc, k)
	if err != nil {
		return err
	}
	inZ := int16(inQ.ZeroPoint(0))
	outZ := outQ.ZeroPoint(0)
	lo, hi := quantActRange(a.Activation, outQ)
	mPad := padUp(m, 4)
	cols := c.Arena.I16(mPad * k)
	zeroI16(cols[m*k:])
	for b := 0; b < n; b++ {
		im2colQuant(in, b, a, inZ, kh, kw, oh, ow, cols[:m*k])
		gemmTiledFusedQuant(cols, plan.wp, plan.bias, out.U, b*m*oc, m, oc, k, plan.muls, outZ, lo, hi)
	}
	return nil
}

// im2colQuant lowers one batch element into the [oh*ow, kh*kw*ic] matrix
// with the input zero point subtracted up front, so padded taps contribute
// exactly zero to the accumulator. Pointwise convolutions take the flat
// subtract-copy path.
func im2colQuant(in *tensor.Tensor, batch int, a graph.Attrs, inZ int16, kh, kw, oh, ow int, dst []int16) {
	ih, iw, ic := in.Shape[1], in.Shape[2], in.Shape[3]
	if pointwiseConv(a, kh, kw) && oh == ih && ow == iw {
		src := in.U[batch*ih*iw*ic:][:len(dst)]
		for i, v := range src {
			dst[i] = int16(v) - inZ
		}
		return
	}
	dh, dw := max1(a.DilationH), max1(a.DilationW)
	k := kh * kw * ic
	row := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			base := row * k
			col := 0
			for ky := 0; ky < kh; ky++ {
				iy := oy*a.StrideH - a.PadT + ky*dh
				for kx := 0; kx < kw; kx++ {
					ix := ox*a.StrideW - a.PadL + kx*dw
					if iy < 0 || iy >= ih || ix < 0 || ix >= iw {
						for ci := 0; ci < ic; ci++ {
							dst[base+col] = 0
							col++
						}
						continue
					}
					src := ((batch*ih+iy)*iw + ix) * ic
					for ci := 0; ci < ic; ci++ {
						dst[base+col] = int16(in.U[src+ci]) - inZ
						col++
					}
				}
			}
			row++
		}
	}
}

// denseQuantTiled is the quantized fully-connected layer through the int8
// packed path.
func denseQuantTiled(c *Ctx) error {
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
	plan, err := cachedQuantGemmPlan(c, w, bias, outC, inC)
	if err != nil {
		return err
	}
	inZ := int16(inQ.ZeroPoint(0))
	outZ := outQ.ZeroPoint(0)
	lo, hi := quantActRange(a.Activation, outQ)
	nPad := padUp(n, 4)
	ap := c.Arena.I16(nPad * inC)
	for i, v := range in.U[:n*inC] {
		ap[i] = int16(v) - inZ
	}
	zeroI16(ap[n*inC:])
	gemmTiledFusedQuant(ap, plan.wp, plan.bias, out.U, 0, n, outC, inC, plan.muls, outZ, lo, hi)
	return nil
}
