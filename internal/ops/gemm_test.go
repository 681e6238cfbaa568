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
// odd widths (border/interior/pair splits), 3x3 and 5x5 taps, strides and
// dilation, each backend against the reference slab loop.
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
			checkFloatParity(t, b, out, ref, "depthwise "+cse.name)
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

		// Full-range bytes and weights under extreme input/output zero
		// points; per-channel multipliers sized so outputs spread over the
		// uint8 range instead of saturating.
		inQ8, wI8, bI32 := tensor.New(tensor.U8, p.inShape...), tensor.New(tensor.I8, p.wShape...), tensor.New(tensor.I32, p.oc)
		for j := range inQ8.U {
			inQ8.U[j] = uint8(rng.Intn(256))
		}
		for j := range wI8.I {
			wI8.I[j] = int8(rng.Intn(255) - 127)
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
		inP := quant.PerTensor(0.05, zeroPoints[i%3])
		wP := quant.PerChannel(scales, make([]int32, p.oc), axis)
		outP := quant.PerTensor(0.05, zeroPoints[(i/3)%3])
		qins, qps := []*tensor.Tensor{inQ8, wI8, bI32}, []*quant.Params{inP, wP, nil}
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
