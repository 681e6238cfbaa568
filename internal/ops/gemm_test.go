package ops

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"mlexray/internal/graph"
	"mlexray/internal/quant"
	"mlexray/internal/tensor"
)

// The kernel-backend parity suite: every backend must compute the same
// function through denseFloatOpt/convFloatOpt/depthwiseFloatOpt and their
// quantized counterparts. Float agreement is validator-style — tolerance +
// nRMSE against the reference-resolver kernels (the tiled backend's fused
// epilogue seeds accumulators with the bias, changing the summation order;
// see DESIGN.md §10). Quantized outputs are int32-accumulated, so every
// backend must be bit-exact.
//
// The CI kernel matrix runs this file per backend via MLEXRAY_KERNEL
// (reference|tiled); unset, each test sweeps all backends. Tests are
// named TestGemmBackend* so `go test ./internal/ops/... -run Gemm` selects
// exactly this suite.

// backendsUnderTest resolves the backend sweep: the MLEXRAY_KERNEL
// environment toggle pins one backend (the CI matrix leg), otherwise every
// registered backend runs.
func backendsUnderTest(t *testing.T) []Backend {
	t.Helper()
	if s := os.Getenv("MLEXRAY_KERNEL"); s != "" {
		b, err := ParseBackend(s)
		if err != nil {
			t.Fatalf("MLEXRAY_KERNEL: %v", err)
		}
		return []Backend{b}
	}
	return Backends()
}

// ctxForBackend is ctxFor with the kernel backend pinned, as the interpreter
// does at plan time.
func ctxForBackend(b Backend, op graph.OpType, attrs graph.Attrs, ins []*tensor.Tensor,
	inQ []*quant.Params, out *tensor.Tensor, outQ *quant.Params) *Ctx {
	c := ctxFor(op, attrs, ins, inQ, out, outQ)
	c.Backend = b
	return c
}

// nRMSE is the validator-style normalized error: RMSE over the reference
// output's value range. Zero-range outputs fall back to plain RMSE.
func nRMSE(t *testing.T, got, ref *tensor.Tensor) float64 {
	t.Helper()
	rmse, err := tensor.RMSE(got, ref)
	if err != nil {
		t.Fatal(err)
	}
	if r := tensor.ComputeStats(ref).Range(); r > 0 {
		return rmse / r
	}
	return rmse
}

// checkFloatParity applies the float contract: close to the reference
// within validator bounds on every backend.
func checkFloatParity(t *testing.T, b Backend, got, ref *tensor.Tensor, label string) {
	t.Helper()
	if !tensor.AllClose(got, ref, 1e-4, 1e-5) {
		t.Errorf("%s: backend %s not close to reference", label, b)
		return
	}
	if e := nRMSE(t, got, ref); e > 1e-5 {
		t.Errorf("%s: backend %s nRMSE %v vs reference, want <= 1e-5", label, b, e)
	}
}

// TestGemmBackendDenseOddShapes sweeps the full odd-shape cross product
// m,n,k in {1, 3, 5, 7, 63, 64, 65} — every row/column-tail combination of
// the register tiles — through each backend's dense lowering.
func TestGemmBackendDenseOddShapes(t *testing.T) {
	sizes := []int{1, 3, 5, 7, 63, 64, 65}
	backends := backendsUnderTest(t)
	rng := rand.New(rand.NewSource(101))
	for _, m := range sizes {
		for _, n := range sizes {
			for _, k := range sizes {
				in := randF32(rng, m, k)
				w := randF32(rng, n, k)
				bias := randF32(rng, n)
				attrs := graph.Attrs{Activation: graph.Activation((m + n + k) % 3)}
				ref := tensor.New(tensor.F32, m, n)
				if err := denseFloatRef(ctxFor(graph.OpDense, attrs, []*tensor.Tensor{in, w, bias}, nil, ref, nil)); err != nil {
					t.Fatal(err)
				}
				for _, b := range backends {
					out := tensor.New(tensor.F32, m, n)
					if err := denseFloatOpt(ctxForBackend(b, graph.OpDense, attrs,
						[]*tensor.Tensor{in, w, bias}, nil, out, nil)); err != nil {
						t.Fatalf("dense %dx%dx%d backend %s: %v", m, n, k, b, err)
					}
					// Label carries the shape so a failure pins the tile tail.
					checkFloatParity(t, b, out, ref, fmt.Sprintf("dense m=%d n=%d k=%d", m, n, k))
				}
			}
		}
	}
}

// TestGemmBackendConvEdgeCases drives each backend's conv lowering through
// stride and dilation edge cases: pointwise (the zero-copy left panel),
// strided SAME 3x3 (direct-conv fast path), dilated 3x3 (the im2col
// fallback), and asymmetric VALID padding.
func TestGemmBackendConvEdgeCases(t *testing.T) {
	backends := backendsUnderTest(t)
	rng := rand.New(rand.NewSource(202))
	cases := []struct {
		name              string
		ih, iw, ic, oc, k int
		stride, dilation  int
		same              bool
		act               graph.Activation
	}{
		{"pointwise", 7, 5, 3, 8, 1, 1, 1, false, graph.ActReLU6},
		{"same3x3", 9, 7, 3, 5, 3, 1, 1, true, graph.ActReLU},
		{"same3x3-stride2", 9, 9, 4, 6, 3, 2, 1, true, graph.ActNone},
		{"valid3x3-stride2", 8, 11, 2, 3, 3, 2, 1, false, graph.ActReLU},
		{"dilated3x3", 11, 9, 3, 4, 3, 1, 2, true, graph.ActNone},
		{"dilated3x3-stride2", 13, 13, 2, 5, 3, 2, 2, false, graph.ActReLU6},
		{"tiny", 3, 3, 1, 1, 3, 1, 1, true, graph.ActNone},
	}
	for _, cse := range cases {
		in := randF32(rng, 1, cse.ih, cse.iw, cse.ic)
		w := randF32(rng, cse.oc, cse.k, cse.k, cse.ic)
		bias := randF32(rng, cse.oc)
		attrs := graph.Attrs{StrideH: cse.stride, StrideW: cse.stride,
			DilationH: cse.dilation, DilationW: cse.dilation, Activation: cse.act}
		if cse.same {
			attrs.PadT, attrs.PadB = graph.SamePadding(cse.ih, cse.k, cse.stride, cse.dilation)
			attrs.PadL, attrs.PadR = graph.SamePadding(cse.iw, cse.k, cse.stride, cse.dilation)
		}
		outShape, err := graph.InferShape(graph.OpConv2D, attrs, [][]int{in.Shape, w.Shape})
		if err != nil {
			t.Fatalf("%s: %v", cse.name, err)
		}
		ref := tensor.New(tensor.F32, outShape...)
		if err := convFloatRef(ctxFor(graph.OpConv2D, attrs, []*tensor.Tensor{in, w, bias}, nil, ref, nil)); err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			out := tensor.New(tensor.F32, outShape...)
			if err := convFloatOpt(ctxForBackend(b, graph.OpConv2D, attrs,
				[]*tensor.Tensor{in, w, bias}, nil, out, nil)); err != nil {
				t.Fatalf("%s backend %s: %v", cse.name, b, err)
			}
			checkFloatParity(t, b, out, ref, "conv "+cse.name)
		}
	}
}

// TestGemmBackendDepthwiseParity covers the register-tiled depthwise kernel:
// odd widths (border/interior splits), 3x3 and 5x5 taps, strides and
// dilation, each backend bit for bit against the reference kernel. The 7x7
// row exceeds maxDWTaps, so it pins the fallback to the reference kernel on
// the tiled backend too.
func TestGemmBackendDepthwiseParity(t *testing.T) {
	backends := backendsUnderTest(t)
	rng := rand.New(rand.NewSource(303))
	cases := []struct {
		name             string
		ih, iw, ic, k    int
		stride, dilation int
	}{
		{"same3x3", 7, 9, 4, 3, 1, 1},
		{"same3x3-stride2", 9, 7, 3, 3, 2, 1},
		{"same5x5", 11, 11, 2, 5, 1, 1},
		{"dilated3x3", 9, 9, 5, 3, 1, 2},
		{"narrow", 5, 3, 8, 3, 1, 1},
		{"same7x7", 9, 10, 11, 7, 1, 1},
	}
	for _, cse := range cases {
		in := randF32(rng, 1, cse.ih, cse.iw, cse.ic)
		w := randF32(rng, 1, cse.k, cse.k, cse.ic)
		bias := randF32(rng, cse.ic)
		attrs := graph.Attrs{StrideH: cse.stride, StrideW: cse.stride,
			DilationH: cse.dilation, DilationW: cse.dilation,
			DepthMultiplier: 1, Activation: graph.Activation((cse.ih + cse.k) % 3)}
		attrs.PadT, attrs.PadB = graph.SamePadding(cse.ih, cse.k, cse.stride, cse.dilation)
		attrs.PadL, attrs.PadR = graph.SamePadding(cse.iw, cse.k, cse.stride, cse.dilation)
		outShape, err := graph.InferShape(graph.OpDepthwiseConv2D, attrs, [][]int{in.Shape, w.Shape})
		if err != nil {
			t.Fatalf("%s: %v", cse.name, err)
		}
		ref := tensor.New(tensor.F32, outShape...)
		if err := depthwiseFloatRef(ctxFor(graph.OpDepthwiseConv2D, attrs,
			[]*tensor.Tensor{in, w, bias}, nil, ref, nil)); err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			out := tensor.New(tensor.F32, outShape...)
			if err := depthwiseFloatOpt(ctxForBackend(b, graph.OpDepthwiseConv2D, attrs,
				[]*tensor.Tensor{in, w, bias}, nil, out, nil)); err != nil {
				t.Fatalf("%s backend %s: %v", cse.name, b, err)
			}
			if i := sameF32Bits(out.F, ref.F); i >= 0 {
				t.Errorf("depthwise %s: backend %s element %d = %v, reference %v", cse.name, b, i, out.F[i], ref.F[i])
			}
		}
	}
}

// runQuantBackend runs the fixture through the optimized quantized kernel
// with the backend pinned — fx.run with the backend seam exercised.
func runQuantBackend(t *testing.T, fx *quantConvFixture, kern Kernel, op graph.OpType, b Backend) *tensor.Tensor {
	t.Helper()
	out := tensor.New(tensor.U8, fx.outShape...)
	ctx := ctxForBackend(b, op, fx.attrs,
		[]*tensor.Tensor{fx.inQ8, fx.wI8, fx.bI32},
		[]*quant.Params{fx.inP, fx.wP, nil}, out, fx.outP)
	if err := kern(ctx); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGemmBackendQuantBitExact pins the integer contract: conv and depthwise
// through every backend are bitwise equal to the reference quantized kernels
// on odd shapes, strides and activations — integer accumulation is
// associative, so no backend may perturb a single bit.
func TestGemmBackendQuantBitExact(t *testing.T) {
	backends := backendsUnderTest(t)
	rng := rand.New(rand.NewSource(404))
	for _, cse := range []struct {
		op         graph.OpType
		ref, opt   Kernel
		ih, ic, oc int
		k, stride  int
		act        graph.Activation
	}{
		{graph.OpConv2D, convQuantRef, convQuantOpt, 7, 3, 5, 3, 1, graph.ActReLU6},
		{graph.OpConv2D, convQuantRef, convQuantOpt, 9, 1, 7, 3, 2, graph.ActNone},
		{graph.OpConv2D, convQuantRef, convQuantOpt, 5, 4, 1, 1, 1, graph.ActReLU},
		{graph.OpDepthwiseConv2D, depthwiseQuantRef, depthwiseQuantOpt, 7, 6, 0, 3, 1, graph.ActReLU6},
		{graph.OpDepthwiseConv2D, depthwiseQuantRef, depthwiseQuantOpt, 9, 3, 0, 5, 2, graph.ActNone},
		// The historical kernel against the loop nest with the same defective
		// requantizer (TestGemmBackendQuantHistoricalDepthwise sweeps the
		// geometries this fixture cannot express).
		{graph.OpDepthwiseConv2D, historicalLoopNest, depthwiseQuantOptBuggy, 7, 6, 0, 3, 1, graph.ActReLU6},
		{graph.OpDepthwiseConv2D, historicalLoopNest, depthwiseQuantOptBuggy, 9, 3, 0, 5, 2, graph.ActNone},
	} {
		fx := makeQuantConvFixture(t, rng, cse.op, cse.ih, cse.ic, cse.oc, cse.k, cse.stride, cse.act)
		ref := fx.run(t, cse.ref, cse.op)
		for _, b := range backends {
			got := runQuantBackend(t, fx, cse.opt, cse.op, b)
			for i := range ref.U {
				if got.U[i] != ref.U[i] {
					t.Errorf("%s k=%d stride=%d backend %s: quant output differs at %d: %d vs %d",
						cse.op, cse.k, cse.stride, b, i, got.U[i], ref.U[i])
					break
				}
			}
		}
	}
}

// historicalLoopNest is the reference loop nest with the historical
// logical-shift requantizer: what depthwiseQuantOptBuggy was before it
// dispatched to the register tiles, and the oracle it is held to.
func historicalLoopNest(c *Ctx) error { return depthwiseQuantImpl(c, true) }

// TestGemmBackendQuantHistoricalDepthwise holds the historical depthwise
// kernel, on every backend, to the loop nest run with the same defective
// requantizer: the defect lives in the store, so routing the accumulation
// through the register tiles must not move a byte of it. Mixed-sign weights
// against a mid-range zero point drive about half the accumulators negative;
// each row first proves the defect fired by differing from the correct kernel.
func TestGemmBackendQuantHistoricalDepthwise(t *testing.T) {
	backends := backendsUnderTest(t)
	rng := rand.New(rand.NewSource(707))
	for _, g := range []struct{ ih, iw, ic, k, stride, dilation, mult int }{
		{7, 9, 6, 3, 1, 1, 1},
		{9, 7, 3, 5, 1, 1, 1},
		{9, 11, 5, 3, 2, 1, 1},
		{11, 9, 4, 3, 1, 2, 1},
		{13, 7, 7, 5, 2, 2, 1},
		{5, 3, 9, 3, 1, 1, 1},
		{9, 9, 3, 3, 1, 1, 2},   // depth multiplier: the loop nest on every backend
		{11, 11, 2, 7, 1, 1, 1}, // past maxDWTaps: likewise
	} {
		p := diffProblem{op: graph.OpDepthwiseConv2D, batch: 2, ih: g.ih, iw: g.iw, ic: g.ic, oc: g.ic * g.mult, kh: g.k, kw: g.k,
			attrs: graph.Attrs{StrideH: g.stride, StrideW: g.stride, DilationH: g.dilation, DilationW: g.dilation,
				DepthMultiplier: g.mult, Activation: graph.Activation((g.ih + g.k) % 3)}}
		p.attrs.PadT, p.attrs.PadB = graph.SamePadding(g.ih, g.k, g.stride, g.dilation)
		p.attrs.PadL, p.attrs.PadR = graph.SamePadding(g.iw, g.k, g.stride, g.dilation)
		p, ok := p.finish()
		if !ok {
			t.Fatalf("%v has no output", p)
		}
		qins, qps, outP := randQuantOperands(rng, p, 128, 128, true)
		run := func(kern Kernel, b Backend) *tensor.Tensor {
			out := tensor.New(tensor.U8, p.shape...)
			if err := kern(ctxForBackend(b, p.op, p.attrs, qins, qps, out, outP)); err != nil {
				t.Fatalf("%v backend %s: %v", p, b, err)
			}
			return out
		}
		want := run(historicalLoopNest, BackendReference)
		if firstDiffU8(want, run(depthwiseQuantRef, BackendReference)) < 0 {
			t.Fatalf("%v: the logical-shift defect did not fire", p)
		}
		for _, b := range backends {
			if i := firstDiffU8(want, run(depthwiseQuantOptBuggy, b)); i >= 0 {
				t.Errorf("%v backend %s: historical kernel differs from the loop nest at %d", p, b, i)
			}
		}
	}
}

// TestGemmBackendQuantPairDifferential is the seeded differential of the
// pair-packed int8 GEMM against the reference dot loops: odd row and column
// counts (the zero pad column, the short row tile), every reduction depth
// 1..97, zero points 0/128/255, weights and activations at their extremes,
// per-channel multipliers. Dense drives the GEMM shape directly; the
// pointwise and 3x3 convolutions reach it through both im2col routes.
func TestGemmBackendQuantPairDifferential(t *testing.T) {
	backends := backendsUnderTest(t)
	rng := rand.New(rand.NewSource(808))
	zeroPoints := []int32{0, 128, 255}
	for i := 0; i < 291; i++ {
		k := 1 + i%97
		var p diffProblem
		var ref, opt Kernel
		switch i / 97 {
		case 0:
			p = diffProblem{op: graph.OpDense, batch: 1 + rng.Intn(9), ic: k, oc: 1 + rng.Intn(11)}
			ref, opt = denseQuantRef, denseQuantOpt
		case 1:
			p = diffProblem{op: graph.OpConv2D, batch: 1, ih: 1 + rng.Intn(5), iw: 1 + rng.Intn(5), ic: k, oc: 1 + rng.Intn(9), kh: 1, kw: 1,
				attrs: graph.Attrs{StrideH: 1, StrideW: 1}}
			ref, opt = convQuantRef, convQuantOpt
		default:
			ic := 1 + k/9
			p = diffProblem{op: graph.OpConv2D, batch: 1, ih: 3 + rng.Intn(4), iw: 3 + rng.Intn(4), ic: ic, oc: 1 + rng.Intn(7), kh: 3, kw: 3,
				attrs: graph.Attrs{StrideH: 1 + rng.Intn(2), StrideW: 1, PadT: 1, PadB: 1, PadL: 1, PadR: 1}}
			ref, opt = convQuantRef, convQuantOpt
		}
		p.attrs.Activation = graph.Activation(i % 3)
		p, ok := p.finish()
		if !ok {
			t.Fatalf("%v has no output", p)
		}
		qins, qps, outP := randQuantOperands(rng, p, zeroPoints[i%3], zeroPoints[(i/3)%3], true)
		if p.kh <= 1 {
			// Dense and pointwise: the first output row's left operand is the
			// first k input bytes, so its accumulators are known here. Cancel
			// them with the bias and requantize at a multiplier near 1, and an
			// accumulator off by one shows in the output byte instead of
			// vanishing in the rounding.
			in, w, bias := qins[0], qins[1], qins[2]
			for c := range bias.X {
				var acc int32
				for q := 0; q < k; q++ {
					acc += (int32(in.U[q]) - qps[0].ZeroPoint(0)) * int32(w.I[c*k+q])
				}
				bias.X[c] = int32(rng.Intn(200)-100) - acc
				qps[1].Scales[c] = 0.5 + 0.45*rng.Float64()
			}
		}
		want := tensor.New(tensor.U8, p.shape...)
		if err := ref(ctxFor(p.op, p.attrs, qins, qps, want, outP)); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for _, b := range backends {
			got := tensor.New(tensor.U8, p.shape...)
			if err := opt(ctxForBackend(b, p.op, p.attrs, qins, qps, got, outP)); err != nil {
				t.Fatalf("%v backend %s: %v", p, b, err)
			}
			if j := firstDiffU8(want, got); j >= 0 {
				t.Errorf("%v inZ=%d backend %s: int8 output differs at %d: %d vs %d",
					p, qps[0].ZeroPoint(0), b, j, got.U[j], want.U[j])
			}
		}
	}
}

// TestGemmBackendQuantPairDepthBound stands the pair accumulator at the edge
// of its exactness bound: at k = maxQuantGemmK, neighbouring columns pinned at
// opposite extremes (+/-255*128*k, just inside int32) must still split back
// bit-exactly, and one input deeper the plan must refuse rather than wrap.
func TestGemmBackendQuantPairDepthBound(t *testing.T) {
	const outC = 3
	for _, inZ := range []int32{0, 255} {
		k := maxQuantGemmK
		in, w := tensor.New(tensor.U8, 1, k), tensor.New(tensor.I8, outC, k)
		in.Fill(float64(255 - inZ)) // in - inZ = +/-255 everywhere
		for j := range w.I {
			w.I[j] = int8(255*(j/k%2) - 128) // column 0 and 2 at -128, column 1 at 127
		}
		// The bias cancels each column's accumulator to within a few counts
		// and the multiplier is near 1, so one count lost in the split would
		// move the output byte.
		bias := tensor.New(tensor.I32, outC)
		for c := range bias.X {
			bias.X[c] = int32(10*(c+1)) - (255-2*inZ)*int32(w.I[c*k])*int32(k)
		}
		qps := []*quant.Params{quant.PerTensor(0.05, inZ), quant.PerChannel([]float64{0.9, 0.9, 0.9}, make([]int32, outC), 0), nil}
		outP := quant.PerTensor(0.05, 128)
		ins := []*tensor.Tensor{in, w, bias}
		want, got := tensor.New(tensor.U8, 1, outC), tensor.New(tensor.U8, 1, outC)
		if err := denseQuantRef(ctxFor(graph.OpDense, graph.Attrs{}, ins, qps, want, outP)); err != nil {
			t.Fatal(err)
		}
		if err := denseQuantOpt(ctxForBackend(BackendTiled, graph.OpDense, graph.Attrs{}, ins, qps, got, outP)); err != nil {
			t.Fatal(err)
		}
		if j := firstDiffU8(want, got); j >= 0 {
			t.Errorf("inZ=%d: k=%d output differs at %d: %d vs %d", inZ, k, j, got.U[j], want.U[j])
		}
		if want.U[0] != 128+9 || want.U[1] != 128+18 || want.U[2] != 128+27 {
			t.Errorf("inZ=%d: reference bytes %v, want the cancelled accumulators 10, 20, 30 at multiplier 0.9", inZ, want.U)
		}
	}

	k := maxQuantGemmK + 1
	in, w, out := tensor.New(tensor.U8, 1, k), tensor.New(tensor.I8, 1, k), tensor.New(tensor.U8, 1, 1)
	qps := []*quant.Params{quant.PerTensor(0.05, 0), quant.PerTensor(1e-8, 0), nil}
	err := denseQuantOpt(ctxForBackend(BackendTiled, graph.OpDense, graph.Attrs{}, []*tensor.Tensor{in, w}, qps, out, quant.PerTensor(0.05, 0)))
	const wantErr = "ops: Dense reduces over 65537 inputs, the tiled int8 kernel is exact up to 65536 (run it on the reference backend)"
	if err == nil || err.Error() != wantErr {
		t.Errorf("k=%d: error %v, want %q", k, err, wantErr)
	}
	if err := denseQuantOpt(ctxForBackend(BackendReference, graph.OpDense, graph.Attrs{}, []*tensor.Tensor{in, w}, qps, out, quant.PerTensor(0.05, 0))); err != nil {
		t.Errorf("k=%d on the reference backend: %v", k, err)
	}
}

// TestGemmBackendQuantDenseBitExact is the dense leg of the integer
// contract, with odd batch and feature sizes straddling the register tile.
func TestGemmBackendQuantDenseBitExact(t *testing.T) {
	backends := backendsUnderTest(t)
	rng := rand.New(rand.NewSource(505))
	for _, cse := range []struct{ batch, inC, outC int }{
		{1, 7, 5}, {3, 64, 9}, {5, 65, 63},
	} {
		in := tensor.New(tensor.F32, cse.batch, cse.inC)
		tensor.RandUniform(rng, in, -1, 1)
		w := tensor.New(tensor.F32, cse.outC, cse.inC)
		tensor.RandUniform(rng, w, -0.5, 0.5)
		bias := tensor.New(tensor.F32, cse.outC)
		tensor.RandUniform(rng, bias, -0.2, 0.2)
		floatOut := tensor.New(tensor.F32, cse.batch, cse.outC)
		if err := denseFloatRef(ctxFor(graph.OpDense, graph.Attrs{}, []*tensor.Tensor{in, w, bias}, nil, floatOut, nil)); err != nil {
			t.Fatal(err)
		}
		inP := quant.AsymmetricU8Params(-1, 1)
		inQ8 := quant.QuantizeTensorU8(in, inP)
		wI8, wP, err := quant.QuantizeWeightsPerChannel(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		bI32 := quant.QuantizeBias(bias, inP.Scale(0), wP)
		st := tensor.ComputeStats(floatOut)
		outP := quant.AsymmetricU8Params(st.Min, st.Max)
		ref := tensor.New(tensor.U8, cse.batch, cse.outC)
		if err := denseQuantRef(ctxFor(graph.OpDense, graph.Attrs{}, []*tensor.Tensor{inQ8, wI8, bI32},
			[]*quant.Params{inP, wP, nil}, ref, outP)); err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			got := tensor.New(tensor.U8, cse.batch, cse.outC)
			if err := denseQuantOpt(ctxForBackend(b, graph.OpDense, graph.Attrs{},
				[]*tensor.Tensor{inQ8, wI8, bI32}, []*quant.Params{inP, wP, nil}, got, outP)); err != nil {
				t.Fatalf("dense quant %dx%dx%d backend %s: %v", cse.batch, cse.inC, cse.outC, b, err)
			}
			for i := range ref.U {
				if got.U[i] != ref.U[i] {
					t.Errorf("dense quant %dx%dx%d backend %s differs at %d: %d vs %d",
						cse.batch, cse.inC, cse.outC, b, i, got.U[i], ref.U[i])
					break
				}
			}
		}
	}
}

// diffProblem is one generated kernel-family problem of the default-backend
// differential test. For depthwise, oc is ic*mult; for dense, ih/iw/k* are
// unused and ic/oc are the feature counts.
type diffProblem struct {
	op                     graph.OpType
	batch, ih, iw, ic, oc  int
	kh, kw                 int
	attrs                  graph.Attrs
	inShape, wShape, shape []int
}

func (p diffProblem) String() string {
	a := p.attrs
	return fmt.Sprintf("%s n=%d in=%dx%dx%d oc=%d k=%dx%d stride=%dx%d dil=%dx%d pad=%d,%d,%d,%d mult=%d act=%d",
		p.op, p.batch, p.ih, p.iw, p.ic, p.oc, p.kh, p.kw, a.StrideH, a.StrideW,
		a.DilationH, a.DilationW, a.PadT, a.PadB, a.PadL, a.PadR, a.DepthMultiplier, a.Activation)
}

// finish derives the tensor shapes; ok is false when the geometry leaves no
// output pixels.
func (p diffProblem) finish() (diffProblem, bool) {
	switch p.op {
	case graph.OpDense:
		p.inShape, p.wShape = []int{p.batch, p.ic}, []int{p.oc, p.ic}
	case graph.OpDepthwiseConv2D:
		p.inShape, p.wShape = []int{p.batch, p.ih, p.iw, p.ic}, []int{1, p.kh, p.kw, p.oc}
	default:
		p.inShape, p.wShape = []int{p.batch, p.ih, p.iw, p.ic}, []int{p.oc, p.kh, p.kw, p.ic}
	}
	shape, err := graph.InferShape(p.op, p.attrs, [][]int{p.inShape, p.wShape})
	p.shape = shape
	return p, err == nil
}

// randDiffProblem draws shapes, strides, dilations, paddings (SAME, VALID or
// arbitrary asymmetric) and activations.
func randDiffProblem(rng *rand.Rand) diffProblem {
	for {
		p := diffProblem{batch: 1 + rng.Intn(2), ic: 1 + rng.Intn(10), oc: 1 + rng.Intn(9)}
		p.attrs.Activation = graph.Activation(rng.Intn(3))
		switch rng.Intn(5) {
		case 0:
			p.op = graph.OpDense
			p.ic = 1 + rng.Intn(70)
		case 1, 2:
			p.op = graph.OpDepthwiseConv2D
			p.attrs.DepthMultiplier = 1 + rng.Intn(2)
			p.oc = p.ic * p.attrs.DepthMultiplier
		default:
			p.op = graph.OpConv2D
		}
		if p.op != graph.OpDense {
			p.ih, p.iw = 3+rng.Intn(10), 3+rng.Intn(10)
			p.kh, p.kw = 1+2*rng.Intn(3), 1+2*rng.Intn(3)
			a := &p.attrs
			a.StrideH, a.StrideW = 1+rng.Intn(2), 1+rng.Intn(2)
			a.DilationH, a.DilationW = 1+rng.Intn(2), 1+rng.Intn(2)
			switch rng.Intn(3) {
			case 0:
				a.PadT, a.PadB = graph.SamePadding(p.ih, p.kh, a.StrideH, a.DilationH)
				a.PadL, a.PadR = graph.SamePadding(p.iw, p.kw, a.StrideW, a.DilationW)
			case 1:
				eh, ew := (p.kh-1)*a.DilationH, (p.kw-1)*a.DilationW
				a.PadT, a.PadB = rng.Intn(eh+1), rng.Intn(eh+1)
				a.PadL, a.PadR = rng.Intn(ew+1), rng.Intn(ew+1)
			}
		}
		if p, ok := p.finish(); ok {
			return p
		}
	}
}

// randQuantOperands draws the int8 operands of a problem: full-range bytes
// and weights under the given input/output zero points, per-channel
// multipliers sized so outputs spread over the uint8 range instead of
// saturating. extremes additionally plants runs of the values that stretch an
// accumulator furthest — activations 0 and 255, weights -128 and 127.
func randQuantOperands(rng *rand.Rand, p diffProblem, inZ, outZ int32, extremes bool) ([]*tensor.Tensor, []*quant.Params, *quant.Params) {
	inQ8, wI8, bI32 := tensor.New(tensor.U8, p.inShape...), tensor.New(tensor.I8, p.wShape...), tensor.New(tensor.I32, p.oc)
	for j := range inQ8.U {
		inQ8.U[j] = uint8(rng.Intn(256))
		if extremes && rng.Intn(3) == 0 {
			inQ8.U[j] = uint8(255 * rng.Intn(2))
		}
	}
	for j := range wI8.I {
		wI8.I[j] = int8(rng.Intn(255) - 127)
		if extremes && rng.Intn(3) == 0 {
			wI8.I[j] = int8(255*rng.Intn(2) - 128)
		}
	}
	for j := range bI32.X {
		bI32.X[j] = int32(rng.Intn(1<<13) - 1<<12)
	}
	taps := p.kh * p.kw
	if p.op != graph.OpDepthwiseConv2D {
		taps = wI8.Len() / p.oc
	}
	scales := make([]float64, p.oc)
	for j := range scales {
		scales[j] = (0.5 + rng.Float64()) * 40 / (5400 * math.Sqrt(float64(taps)))
	}
	axis := 0
	if p.op == graph.OpDepthwiseConv2D {
		axis = 3
	}
	inP := quant.PerTensor(0.05, inZ)
	wP := quant.PerChannel(scales, make([]int32, p.oc), axis)
	return []*tensor.Tensor{inQ8, wI8, bI32}, []*quant.Params{inP, wP, nil}, quant.PerTensor(0.05, outZ)
}

// firstDiffU8 returns the first index where two uint8 outputs differ, or -1.
func firstDiffU8(a, b *tensor.Tensor) int {
	for i := range a.U {
		if a.U[i] != b.U[i] {
			return i
		}
	}
	return -1
}

// TestGemmBackendDefaultDifferential is the seeded differential pin of the
// default backend — a Ctx that never sets Backend — against the kernels
// NewReference registers: float within the validator bound, int8 bit-exact.
// The forced problems are the routes only the tiled dispatchers' fallbacks
// reach: depthwise with a depth multiplier, depthwise past maxDWTaps, and
// both sides of the direct-conv input-channel gate.
func TestGemmBackendDefaultDifferential(t *testing.T) {
	conv3 := func(ic int) diffProblem {
		pt, pb := graph.SamePadding(9, 3, 1, 1)
		return diffProblem{op: graph.OpConv2D, batch: 1, ih: 9, iw: 9, ic: ic, oc: 6, kh: 3, kw: 3,
			attrs: graph.Attrs{StrideH: 1, StrideW: 1, PadT: pt, PadB: pb, PadL: pt, PadR: pb, Activation: graph.ActReLU6}}
	}
	dw := func(ic, k, mult int) diffProblem {
		pt, pb := graph.SamePadding(11, k, 1, 1)
		return diffProblem{op: graph.OpDepthwiseConv2D, batch: 1, ih: 11, iw: 11, ic: ic, oc: ic * mult, kh: k, kw: k,
			attrs: graph.Attrs{StrideH: 1, StrideW: 1, PadT: pt, PadB: pb, PadL: pt, PadR: pb,
				DepthMultiplier: mult, Activation: graph.ActReLU}}
	}
	if maxConvDirectIC != 8 || maxDWTaps >= 49 {
		t.Fatalf("forced problems assume the direct-conv gate at ic 8 and maxDWTaps < 49, have %d and %d",
			maxConvDirectIC, maxDWTaps)
	}
	var problems []diffProblem
	for _, p := range []diffProblem{dw(3, 3, 2), dw(4, 7, 1), conv3(8), conv3(9)} {
		p, ok := p.finish()
		if !ok {
			t.Fatalf("forced problem %v has no output", p)
		}
		problems = append(problems, p)
	}
	rng := rand.New(rand.NewSource(606))
	for i := 0; i < 150; i++ {
		problems = append(problems, randDiffProblem(rng))
	}

	kernels := map[graph.OpType]struct{ floatRef, floatOpt, quantRef, quantOpt Kernel }{
		graph.OpConv2D:          {convFloatRef, convFloatOpt, convQuantRef, convQuantOpt},
		graph.OpDepthwiseConv2D: {depthwiseFloatRef, depthwiseFloatOpt, depthwiseQuantRef, depthwiseQuantOpt},
		graph.OpDense:           {denseFloatRef, denseFloatOpt, denseQuantRef, denseQuantOpt},
	}
	zeroPoints := []int32{0, 255, 128}
	for i, p := range problems {
		k := kernels[p.op]

		ins := []*tensor.Tensor{randF32(rng, p.inShape...), randF32(rng, p.wShape...), randF32(rng, p.oc)}
		ref, got := tensor.New(tensor.F32, p.shape...), tensor.New(tensor.F32, p.shape...)
		if err := k.floatRef(ctxFor(p.op, p.attrs, ins, nil, ref, nil)); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := k.floatOpt(ctxFor(p.op, p.attrs, ins, nil, got, nil)); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		checkFloatParity(t, BackendTiled, got, ref, p.String())

		qins, qps, outP := randQuantOperands(rng, p, zeroPoints[i%3], zeroPoints[(i/3)%3], false)
		inP := qps[0]
		qref, qgot := tensor.New(tensor.U8, p.shape...), tensor.New(tensor.U8, p.shape...)
		if err := k.quantRef(ctxFor(p.op, p.attrs, qins, qps, qref, outP)); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := k.quantOpt(ctxFor(p.op, p.attrs, qins, qps, qgot, outP)); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for j := range qref.U {
			if qgot.U[j] != qref.U[j] {
				t.Errorf("%v inZ=%d outZ=%d: int8 output differs at %d: %d vs %d",
					p, inP.ZeroPoint(0), outP.ZeroPoint(0), j, qgot.U[j], qref.U[j])
				break
			}
		}
	}
}

// TestDefaultBackendIsTiled pins the zero value a hand-built Ctx runs.
func TestDefaultBackendIsTiled(t *testing.T) {
	if b := (Ctx{}).Backend; b != BackendTiled {
		t.Errorf("zero-value Ctx backend = %s, want tiled", b)
	}
}
