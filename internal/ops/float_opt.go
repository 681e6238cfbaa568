package ops

import (
	"mlexray/internal/graph"
	"mlexray/internal/tensor"
)

// The optimized float kernels mirror TFLite's production path: im2col
// lowering followed by a GEMM. They compute the same function as the
// reference kernels but in a different summation order, so float outputs
// can differ in the low bits — the benign class of discrepancy the paper
// notes when comparing resolvers on float models ("small discrepancies on
// float models due to the non-associativity of floating point arithmetic").
//
// All transient buffers come from the Ctx arena, so a planned interpreter
// invokes these kernels without allocating.

// im2col lowers a padded convolution input into a [outH*outW, kh*kw*inC]
// matrix for one batch element. Out-of-bounds taps are zero.
func im2col(in *tensor.Tensor, batch int, a graph.Attrs, kh, kw, oh, ow int, dst []float32) {
	ih, iw, ic := in.Shape[1], in.Shape[2], in.Shape[3]
	dh, dw := max1(a.DilationH), max1(a.DilationW)
	cols := kh * kw * ic
	row := 0
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			base := row * cols
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
					copy(dst[base+col:base+col+ic], in.F[src:src+ic])
					col += ic
				}
			}
			row++
		}
	}
}

// gemmRefNT computes C[m,n] += A[m,k] * B[n,k]^T with the naive
// single-column dot loop: the reference backend's anchor kernel. Each output
// element accumulates over p ascending. It exists so the tiled kernels
// always have a slow, obviously-correct kernel to race.
func gemmRefNT(a []float32, b []float32, c []float32, m, n, k int) {
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b[j*k:][:len(ai)]
			var acc float32
			for p, av := range ai {
				acc += av * bj[p]
			}
			ci[j] += acc
		}
	}
}

// convFloatOpt is the optimized Conv2D, dispatching on the planned kernel
// backend: the tiled backend takes the packed fused path, the reference
// backend the im2col + naive GEMM + separate-epilogue lowering below.
func convFloatOpt(c *Ctx) error {
	if c.Backend == BackendTiled {
		return convFloatTiled(c)
	}
	return convFloatIm2col(c)
}

// convFloatIm2col is the reference backend's Conv2D: im2col + naive GEMM +
// bias and activation epilogue. The im2col matrix spans the whole (possibly
// rebatched) batch, so one GEMM covers every element — per-row summation
// order is unchanged, keeping outputs bitwise identical to a per-element
// lowering.
func convFloatIm2col(c *Ctx) error {
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
	mb := oh * ow // rows per batch element
	m := n * mb
	k := kh * kw * ic
	cols := c.Arena.F32(m * k)
	prod := c.Arena.F32(m * oc)
	for b := 0; b < n; b++ {
		im2col(in, b, a, kh, kw, oh, ow, cols[b*mb*k:(b+1)*mb*k])
	}
	for i := range prod {
		prod[i] = 0
	}
	// Weights are [oc, kh, kw, ic] = row-major [oc, k]: exactly the
	// B[n,k] layout gemmRefNT wants.
	gemmRefNT(cols, w.F, prod, m, oc, k)
	for i := 0; i < m; i++ {
		for co := 0; co < oc; co++ {
			v := prod[i*oc+co]
			if bias != nil {
				v += bias.F[co]
			}
			out.F[i*oc+co] = applyActF32(a.Activation, v)
		}
	}
	return nil
}

// depthwiseFloatOpt is the optimized DepthwiseConv2D: the tiled backend's
// register kernel where it applies (dwTiledApplies), the reference loop nest
// on rarer layouts and the reference backend — the same bits either way.
func depthwiseFloatOpt(c *Ctx) error {
	if dwTiledApplies(c) {
		return depthwiseFloatTiled(c)
	}
	return depthwiseFloatRef(c)
}

// denseFloatOpt runs the fully-connected layer through the backend's GEMM.
func denseFloatOpt(c *Ctx) error {
	if c.Backend == BackendTiled {
		return denseFloatTiled(c)
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
	inC := in.Len() / n
	outC := w.Shape[0]
	out.Zero()
	gemmRefNT(in.F, w.F, out.F, n, outC, inC)
	for b := 0; b < n; b++ {
		for co := 0; co < outC; co++ {
			v := out.F[b*outC+co]
			if bias != nil {
				v += bias.F[co]
			}
			out.F[b*outC+co] = applyActF32(a.Activation, v)
		}
	}
	return nil
}
