package ops

import (
	"fmt"
	"math"

	"mlexray/internal/graph"
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
// path genuinely packs: activations are zero-corrected into an int16 left
// panel per invoke, and weights are packed once per node and cached on the
// Ctx — two columns to an int64 row panel for the Go kernel
// (gemmTiledFusedQuant), two k-steps to an int16 pair per column lane for
// the AVX2 tile (packPairI16), whichever runs. For
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
// four int64 pair accumulators in Go, one multiply per two MACs, and a 4x8
// VPMADDWD tile in assembly. Each float
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
// unrolled by two (eight independent FMAs per branch). Each output element
// accumulates bias-first then p ascending, so neither the tile shape nor the
// unrolling is visible even at the bit level.
func gemmTiledFusedF32(a, b, bias, out []float32, m, n, k int, act graph.Activation) {
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

// gemmTiledFusedQuant is the int8 fast path of the Go kernels: int16
// zero-corrected activations against the pair-packed weight panel, with the
// bias add, fixed-point requantization and clamp fused into the tile store.
// One 64-bit multiply feeds two output columns: panel entry p of column pair
// (j, j+1) is w[j][p] + w[j+1][p]<<32, so an accumulator S = sum_p
// a[p]*entry[p] is L + H<<32 with L and H the two columns' exact int32 dot
// products, split back in pairSplit. That holds while |L| < 2^31, i.e.
// 255*128*k < 2^31 — cachedQuantGemmPlan refuses deeper reductions. Integer
// addition is associative, so this order is bit-exact against the reference
// kernel. a has padUp(m,4) rows of k (pad rows zero); wp has padUp(n,2)/2 rows
// of k; bx is padded to padUp(n,2). out receives the m x n block.
func gemmTiledFusedQuant(a []int16, wp []int64, bx []int32, out []uint8, m, n, k int, rq *requantizer) {
	chans, outZ, lo, hi := rq.chans, rq.outZ, rq.lo, rq.hi
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
			b0, b1, q0 := bx[j0], bx[j0+1], &chans[j0]
			o := i0*n + j0
			if rows == 4 && j0+2 <= n {
				// Full tile: requantize and store straight from the registers.
				q1 := &chans[j0+1]
				out[o] = clampU8(outZ+q0.apply(l0+b0), lo, hi)
				out[o+1] = clampU8(outZ+q1.apply(h0+b1), lo, hi)
				out[o+n] = clampU8(outZ+q0.apply(l1+b0), lo, hi)
				out[o+n+1] = clampU8(outZ+q1.apply(h1+b1), lo, hi)
				out[o+2*n] = clampU8(outZ+q0.apply(l2+b0), lo, hi)
				out[o+2*n+1] = clampU8(outZ+q1.apply(h2+b1), lo, hi)
				out[o+3*n] = clampU8(outZ+q0.apply(l3+b0), lo, hi)
				out[o+3*n+1] = clampU8(outZ+q1.apply(h3+b1), lo, hi)
				continue
			}
			// Edge tile: rows past m and the pad column of an odd n were
			// computed on zero operands and are not stored.
			acc := [4][2]int32{{l0, h0}, {l1, h1}, {l2, h2}, {l3, h3}}
			for r, v := range acc[:rows] {
				out[o+r*n] = clampU8(outZ+q0.apply(v[0]+b0), lo, hi)
				if j0+1 < n {
					out[o+r*n+1] = clampU8(outZ+chans[j0+1].apply(v[1]+b1), lo, hi)
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

// packPairI16 packs the first n8 rows of the n x k int8 weight matrix into
// the AVX2 tile's [kp][n8][2] int16 pair panel, kp = (k+1)/2: entry (p, j)
// is w[j][2p], w[j][2p+1], so one VPMADDWD of a broadcast activation pair
// against a panel row is two MACs in each of eight column lanes. An odd k's
// last pair is padded with a zero weight. Done once per node and cached.
func packPairI16(src []int8, n8, k int) []int16 {
	kp := (k + 1) / 2
	dst := make([]int16, 2*kp*n8)
	for j := 0; j < n8; j++ {
		for p, v := range src[j*k:][:k] {
			dst[(p/2*n8+j)*2+p%2] = int16(v)
		}
	}
	return dst
}

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
// the requantizer and the bias, padded to an even column count so the Go
// tile store never branches on a missing bias, and the weight panel of
// whichever kernel runs — each packed on that kernel's first call, so a node
// on AVX2 never builds the Go kernel's panel and the reverse.
type quantGemmPlan struct {
	rq   requantizer
	bias []int32
	wp   []int64 // the Go kernel's pair panel (packPairI8)
	w16  []int16 // the AVX2 tile's pair panel (packPairI16)
}

// cachedQuantGemmPlan returns the node's plan, or nil when a channel is
// outside the lane domain (the node then runs the reference loops).
func cachedQuantGemmPlan(c *Ctx, bias *tensor.Tensor, outC, k int) (*quantGemmPlan, error) {
	if k > maxQuantGemmK {
		return nil, fmt.Errorf("ops: %v reduces over %d inputs, the tiled int8 kernel is exact up to %d (run it on the reference backend)",
			c.Node.Op, k, maxQuantGemmK)
	}
	return cachedLanePlan(c, outC, false, func(rq requantizer) *quantGemmPlan {
		plan := &quantGemmPlan{rq: rq, bias: make([]int32, padUp(outC, 2))}
		if bias != nil {
			copy(plan.bias, bias.X)
		}
		return plan
	})
}

// gemmQuantTiled is the fused int8 GEMM of one Conv2D or Dense node: a holds
// the m x k zero-corrected left operand in rows of k, padded to padUp(m,4)
// zero rows plus one slack element when k is odd; w is the node's [n, k]
// weights, read in place; out receives the m x n block. With the AVX2 tile
// available, the lane-aligned columns (n rounded down to eight) run in
// assembly against the int16 pair panel and the n%8 tail runs the Go store
// over one int32 dot per output — an output's accumulator is the same int32
// whichever code sums it. Otherwise the whole GEMM is gemmTiledFusedQuant.
func gemmQuantTiled(c *Ctx, p *quantGemmPlan, a []int16, w []int8, out []uint8, m, n, k int) error {
	rq := &p.rq
	n8 := n &^ 7
	if !useAVX2 || n8 == 0 {
		if p.wp == nil {
			p.wp = packPairI8(w, n, k)
		}
		gemmTiledFusedQuant(a, p.wp, p.bias, out, m, n, k, rq)
		return nil
	}
	if p.w16 == nil {
		p.w16 = packPairI16(w, n8, k)
	}
	if err := gemmLanesQ8(c.Node.Op, a, p.w16, p.bias, rq.lanes, out, m, n8, (k+1)/2, k, n, rq.outZ, rq.lo, rq.hi); err != nil {
		return err
	}
	for i := 0; i < m && n8 < n; i++ {
		ai := a[i*k : i*k+k]
		for j := n8; j < n; j++ {
			wj := w[j*k:][:len(ai)]
			acc := p.bias[j]
			for q, v := range ai {
				acc += int32(v) * int32(wj[q])
			}
			out[i*n+j] = clampU8(rq.outZ+rq.chans[j].apply(acc), rq.lo, rq.hi)
		}
	}
	return nil
}

// quantLeftPanel hands out the int16 left operand of an m x k int8 GEMM:
// padUp(m,4) rows (the Go tile's row padding) plus one slack element when k
// is odd (the AVX2 tile's last pair reads one element past a row), every
// element past the m*k the caller fills zeroed.
func quantLeftPanel(c *Ctx, m, k int) []int16 {
	a := c.Arena.I16(padUp(m, 4)*k + k%2)
	zeroI16(a[m*k:])
	return a
}

// convQuantTiled is the quantized Conv2D through the int8 packed path:
// zero-corrected int16 im2col into the padded left panel, then the fused
// GEMM (gemmQuantTiled). Bit-exact against convQuantRef by construction; a
// node with a multiplier outside the lane domain runs convQuantRef itself.
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
	n := in.Shape[0]
	oc, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2]
	ic := in.Shape[3]
	oh, ow := out.Shape[1], out.Shape[2]
	m := oh * ow
	k := kh * kw * ic
	plan, err := cachedQuantGemmPlan(c, bias, oc, k)
	if err != nil {
		return err
	}
	if plan == nil {
		return convQuantRef(c)
	}
	inZ := int16(c.InQ[0].ZeroPoint(0))
	cols := quantLeftPanel(c, m, k)
	for b := 0; b < n; b++ {
		im2colQuant(in, b, a, inZ, kh, kw, oh, ow, cols[:m*k])
		if err := gemmQuantTiled(c, plan, cols, w.I, out.U[b*m*oc:], m, oc, k); err != nil {
			return err
		}
	}
	return nil
}

// im2colQuant lowers one batch element into the [oh*ow, kh*kw*ic] matrix
// with the input zero point subtracted up front, so padded taps contribute
// exactly zero to the accumulator. Pointwise convolutions take the flat
// subtract-copy path; otherwise each kernel row's valid taps are one
// contiguous run of the input row when the x dilation is 1, and one run per
// tap when it is not.
func im2colQuant(in *tensor.Tensor, batch int, a graph.Attrs, inZ int16, kh, kw, oh, ow int, dst []int16) {
	ih, iw, ic := in.Shape[1], in.Shape[2], in.Shape[3]
	if pointwiseConv(a, kh, kw) && oh == ih && ow == iw {
		subZeroPoint(dst, in.U[batch*ih*iw*ic:], inZ)
		return
	}
	dh, dw := max1(a.DilationH), max1(a.DilationW)
	k := kh * kw * ic
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*a.StrideW - a.PadL
			for ky := 0; ky < kh; ky++ {
				seg := dst[(oy*ow+ox)*k+ky*kw*ic:][:kw*ic]
				iy := oy*a.StrideH - a.PadT + ky*dh
				if iy < 0 || iy >= ih {
					clear(seg)
					continue
				}
				row := in.U[(batch*ih+iy)*iw*ic:][:iw*ic]
				if dw == 1 {
					// Taps kx0..kx1-1 fall inside the row.
					kx0, kx1 := max(0, -ix0), min(kw, iw-ix0)
					if kx1 <= kx0 {
						clear(seg)
						continue
					}
					clear(seg[:kx0*ic])
					subZeroPoint(seg[kx0*ic:kx1*ic], row[(ix0+kx0)*ic:], inZ)
					clear(seg[kx1*ic:])
					continue
				}
				for kx := 0; kx < kw; kx++ {
					t := seg[kx*ic:][:ic]
					if ix := ix0 + kx*dw; ix >= 0 && ix < iw {
						subZeroPoint(t, row[ix*ic:], inZ)
					} else {
						clear(t)
					}
				}
			}
		}
	}
}

// subZeroPoint writes dst[i] = src[i] - z for every element of dst.
func subZeroPoint(dst []int16, src []uint8, z int16) {
	for i, v := range src[:len(dst)] {
		dst[i] = int16(v) - z
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
	n := in.Shape[0]
	inC := in.Len() / n
	outC := w.Shape[0]
	plan, err := cachedQuantGemmPlan(c, bias, outC, inC)
	if err != nil {
		return err
	}
	if plan == nil {
		return denseQuantRef(c)
	}
	inZ := int16(c.InQ[0].ZeroPoint(0))
	ap := quantLeftPanel(c, n, inC)
	for i, v := range in.U[:n*inC] {
		ap[i] = int16(v) - inZ
	}
	return gemmQuantTiled(c, plan, ap, w.I, out.U, n, outC, inC)
}
