package ops

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mlexray/internal/graph"
	"mlexray/internal/quant"
	"mlexray/internal/tensor"
)

// quantConvFixture builds matched float and quantized conv inputs: a float
// input/weights pair, its quantized counterparts, and output params derived
// from the float result's range.
type quantConvFixture struct {
	attrs           graph.Attrs
	inF, wF, bF     *tensor.Tensor
	inQ8, wI8, bI32 *tensor.Tensor
	inP, wP, outP   *quant.Params
	floatOut        *tensor.Tensor
	outShape        []int
}

func makeQuantConvFixture(t *testing.T, rng *rand.Rand, op graph.OpType, ih, ic, oc, k, stride int, act graph.Activation) *quantConvFixture {
	t.Helper()
	fx := &quantConvFixture{}
	fx.inF = tensor.New(tensor.F32, 1, ih, ih, ic)
	tensor.RandUniform(rng, fx.inF, -1, 1)
	var wShape []int
	mult := 1
	if op == graph.OpDepthwiseConv2D {
		wShape = []int{1, k, k, ic}
		oc = ic
	} else {
		wShape = []int{oc, k, k, ic}
	}
	fx.wF = tensor.New(tensor.F32, wShape...)
	tensor.RandUniform(rng, fx.wF, -0.5, 0.5)
	fx.bF = tensor.New(tensor.F32, oc)
	tensor.RandUniform(rng, fx.bF, -0.2, 0.2)

	pt, pb := graph.SamePadding(ih, k, stride, 1)
	fx.attrs = graph.Attrs{StrideH: stride, StrideW: stride, PadT: pt, PadB: pb, PadL: pt, PadR: pb,
		Activation: act, DepthMultiplier: mult}
	var err error
	fx.outShape, err = graph.InferShape(op, fx.attrs, [][]int{fx.inF.Shape, fx.wF.Shape})
	if err != nil {
		t.Fatal(err)
	}

	// Float reference output (ground truth).
	fx.floatOut = tensor.New(tensor.F32, fx.outShape...)
	var kern Kernel
	if op == graph.OpDepthwiseConv2D {
		kern = depthwiseFloatRef
	} else {
		kern = convFloatRef
	}
	if err := kern(ctxFor(op, fx.attrs, []*tensor.Tensor{fx.inF, fx.wF, fx.bF}, nil, fx.floatOut, nil)); err != nil {
		t.Fatal(err)
	}

	// Quantize everything.
	fx.inP = quant.AsymmetricU8Params(-1, 1)
	fx.inQ8 = quant.QuantizeTensorU8(fx.inF, fx.inP)
	axis := 0
	if op == graph.OpDepthwiseConv2D {
		axis = 3
	}
	fx.wI8, fx.wP, err = quant.QuantizeWeightsPerChannel(fx.wF, axis)
	if err != nil {
		t.Fatal(err)
	}
	fx.bI32 = quant.QuantizeBias(fx.bF, fx.inP.Scale(0), fx.wP)
	st := tensor.ComputeStats(fx.floatOut)
	fx.outP = quant.AsymmetricU8Params(st.Min, st.Max)
	return fx
}

func (fx *quantConvFixture) run(t *testing.T, kern Kernel, op graph.OpType) *tensor.Tensor {
	t.Helper()
	out := tensor.New(tensor.U8, fx.outShape...)
	ctx := ctxFor(op, fx.attrs,
		[]*tensor.Tensor{fx.inQ8, fx.wI8, fx.bI32},
		[]*quant.Params{fx.inP, fx.wP, nil}, out, fx.outP)
	if err := kern(ctx); err != nil {
		t.Fatal(err)
	}
	return out
}

func dequantErr(fx *quantConvFixture, out *tensor.Tensor) float64 {
	deq := quant.DequantizeTensorU8(out, fx.outP)
	rmse, _ := tensor.RMSE(deq, fx.floatOut)
	return rmse
}

func TestQuantConvMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fx := makeQuantConvFixture(t, rng, graph.OpConv2D, 8, 3, 8, 3, 1, graph.ActNone)
	out := fx.run(t, convQuantRef, graph.OpConv2D)
	rng2 := tensor.ComputeStats(fx.floatOut).Range()
	if e := dequantErr(fx, out); e > 0.02*rng2 {
		t.Errorf("quant conv rmse %v exceeds 2%% of range %v", e, rng2)
	}
}

// Property: optimized quantized conv is bit-exact with the reference
// quantized conv (same integer math, different loop order).
func TestQuantConvRefVsOptBitExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := makeQuantConvFixture(t, rng, graph.OpConv2D,
			4+rng.Intn(5), 1+rng.Intn(4), 1+rng.Intn(6), 3, 1+rng.Intn(2), graph.Activation(rng.Intn(3)))
		a := fx.run(t, convQuantRef, graph.OpConv2D)
		b := fx.run(t, convQuantOpt, graph.OpConv2D)
		for i := range a.U {
			if a.U[i] != b.U[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuantDepthwiseCorrectMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fx := makeQuantConvFixture(t, rng, graph.OpDepthwiseConv2D, 8, 8, 0, 3, 1, graph.ActNone)
	out := fx.run(t, depthwiseQuantRef, graph.OpDepthwiseConv2D)
	rng2 := tensor.ComputeStats(fx.floatOut).Range()
	if e := dequantErr(fx, out); e > 0.02*rng2 {
		t.Errorf("quant depthwise rmse %v exceeds 2%% of range %v", e, rng2)
	}
}

// The §4.4 depthwise defect: negative accumulators have their sign bit
// shifted into the value (logical instead of arithmetic right shift) and
// saturate, so the buggy optimized kernel diverges wildly from the reference
// kernel on any data producing negative pre-activations.
func TestQuantDepthwiseOverflowBug(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	// Mixed-sign weights guarantee some negative accumulators.
	in := tensor.New(tensor.F32, 1, 6, 6, 4)
	tensor.RandUniform(rng, in, 2, 4)
	w := tensor.New(tensor.F32, 1, 3, 3, 4)
	tensor.RandUniform(rng, w, -1.0, 1.0)
	b := tensor.New(tensor.F32, 4)
	attrs := graph.Attrs{StrideH: 1, StrideW: 1, PadT: 1, PadB: 1, PadL: 1, PadR: 1, DepthMultiplier: 1}

	inP := quant.AsymmetricU8Params(-4, 4)
	inQ8 := quant.QuantizeTensorU8(in, inP)
	wI8, wP, err := quant.QuantizeWeightsPerChannel(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	bI32 := quant.QuantizeBias(b, inP.Scale(0), wP)
	outP := quant.AsymmetricU8Params(0, 40)

	run := func(k Kernel) *tensor.Tensor {
		out := tensor.New(tensor.U8, 1, 6, 6, 4)
		ctx := ctxFor(graph.OpDepthwiseConv2D, attrs, []*tensor.Tensor{inQ8, wI8, bI32},
			[]*quant.Params{inP, wP, nil}, out, outP)
		if err := k(ctx); err != nil {
			t.Fatal(err)
		}
		return out
	}
	good := run(depthwiseQuantRef)
	bad := run(depthwiseQuantOptBuggy)

	diff := 0
	for i := range good.U {
		if good.U[i] != bad.U[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("the logical-shift defect produced identical output; it is not being exercised")
	}
	// The saturated negatives must produce a large normalized drift — the
	// Figure 6 rMSE spike.
	nrmse, err := tensor.NormalizedRMSE(bad, good)
	if err != nil {
		t.Fatal(err)
	}
	if nrmse < 0.2 {
		t.Errorf("buggy depthwise nRMSE = %v; expected a large spike", nrmse)
	}
}

// With small accumulators (low-magnitude data) the buggy kernel agrees with
// the reference kernel — which is exactly why the defect slips through basic
// smoke tests and needs per-layer validation to catch.
func TestQuantDepthwiseBugInvisibleOnSmallData(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	// Construct quantized data whose accumulators are all non-negative:
	// activations at or above the zero point and strictly positive weights.
	// The logical-shift defect only corrupts negative accumulators, so the
	// buggy kernel is bit-exact here — which is why happy-path smoke tests
	// (all-positive toy data) never catch it.
	inP := quant.AsymmetricU8Params(-1, 1)
	zp := inP.ZeroPoint(0)
	in := tensor.New(tensor.U8, 1, 6, 6, 3)
	for i := range in.U {
		in.U[i] = uint8(zp + int32(rng.Intn(40)))
	}
	w := tensor.New(tensor.I8, 1, 3, 3, 3)
	for i := range w.I {
		w.I[i] = int8(1 + rng.Intn(15))
	}
	wP := quant.PerTensor(0.01, 0)
	outP := quant.AsymmetricU8Params(-1, 1)
	attrs := graph.Attrs{StrideH: 1, StrideW: 1, PadT: 1, PadB: 1, PadL: 1, PadR: 1, DepthMultiplier: 1}
	run := func(k Kernel) *tensor.Tensor {
		out := tensor.New(tensor.U8, 1, 6, 6, 3)
		ctx := ctxFor(graph.OpDepthwiseConv2D, attrs, []*tensor.Tensor{in, w},
			[]*quant.Params{inP, wP}, out, outP)
		if err := k(ctx); err != nil {
			t.Fatal(err)
		}
		return out
	}
	good := run(depthwiseQuantRef)
	bad := run(depthwiseQuantOptBuggy)
	for i := range good.U {
		if good.U[i] != bad.U[i] {
			t.Fatalf("bug visible on small data at %d: %d vs %d", i, good.U[i], bad.U[i])
		}
	}
}

func TestQuantDenseMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	in := tensor.New(tensor.F32, 2, 12)
	tensor.RandUniform(rng, in, -1, 1)
	w := tensor.New(tensor.F32, 5, 12)
	tensor.RandUniform(rng, w, -0.5, 0.5)
	b := tensor.New(tensor.F32, 5)
	tensor.RandUniform(rng, b, -0.2, 0.2)
	floatOut := tensor.New(tensor.F32, 2, 5)
	if err := denseFloatRef(ctxFor(graph.OpDense, graph.Attrs{}, []*tensor.Tensor{in, w, b}, nil, floatOut, nil)); err != nil {
		t.Fatal(err)
	}
	inP := quant.AsymmetricU8Params(-1, 1)
	inQ8 := quant.QuantizeTensorU8(in, inP)
	wI8, wP, err := quant.QuantizeWeightsPerChannel(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	bI32 := quant.QuantizeBias(b, inP.Scale(0), wP)
	st := tensor.ComputeStats(floatOut)
	outP := quant.AsymmetricU8Params(st.Min, st.Max)
	out := tensor.New(tensor.U8, 2, 5)
	ctx := ctxFor(graph.OpDense, graph.Attrs{}, []*tensor.Tensor{inQ8, wI8, bI32},
		[]*quant.Params{inP, wP, nil}, out, outP)
	if err := denseQuantRef(ctx); err != nil {
		t.Fatal(err)
	}
	deq := quant.DequantizeTensorU8(out, outP)
	rmse, _ := tensor.RMSE(deq, floatOut)
	if rmse > 0.02*st.Range() {
		t.Errorf("quant dense rmse %v", rmse)
	}
}

func TestAvgPoolQuantCorrect(t *testing.T) {
	p := quant.AsymmetricU8Params(0, 255)
	in := tensor.FromBytes([]uint8{10, 20, 30, 40}, 1, 2, 2, 1)
	out := tensor.New(tensor.U8, 1, 1, 1, 1)
	attrs := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	ctx := ctxFor(graph.OpAvgPool2D, attrs, []*tensor.Tensor{in}, []*quant.Params{p}, out, p)
	if err := avgPoolQuantCorrect(ctx); err != nil {
		t.Fatal(err)
	}
	if out.U[0] != 25 {
		t.Errorf("avg = %d, want 25", out.U[0])
	}
}

// The §4.4 average-pool defect: on long windows (the "vectorized" path) the
// division by the window size is lost, so the kernel emits the clamped sum —
// saturating for any active channel. Short windows take the scalar path and
// stay correct — the reason Inception's 3x3 pooling branch survives while
// MobileNet-v3's global pools do not.
func TestAvgPoolQuantMissingDivideBug(t *testing.T) {
	p := quant.AsymmetricU8Params(0, 255)
	// 6x6 global pool (36 taps >= buggy threshold) of modest activations.
	in := tensor.New(tensor.U8, 1, 6, 6, 1)
	for i := range in.U {
		in.U[i] = uint8(10 + i%5)
	}
	attrs := graph.Attrs{KernelH: 6, KernelW: 6, StrideH: 6, StrideW: 6}
	out := tensor.New(tensor.U8, 1, 1, 1, 1)
	ctxOK := ctxFor(graph.OpAvgPool2D, attrs, []*tensor.Tensor{in}, []*quant.Params{p}, out, p)
	if err := avgPoolQuantCorrect(ctxOK); err != nil {
		t.Fatal(err)
	}
	if out.U[0] < 10 || out.U[0] > 15 {
		t.Fatalf("correct avg = %d, want ~12", out.U[0])
	}
	bad := tensor.New(tensor.U8, 1, 1, 1, 1)
	ctxBad := ctxFor(graph.OpAvgPool2D, attrs, []*tensor.Tensor{in}, []*quant.Params{p}, bad, p)
	if err := avgPoolQuantBuggy(ctxBad); err != nil {
		t.Fatal(err)
	}
	// The undivided 36-tap sum (~430) saturates the quantized range.
	if bad.U[0] != 255 {
		t.Errorf("buggy avg = %d, want saturation at 255", bad.U[0])
	}
	// Short windows (2x2 = 4 taps) take the scalar path and are correct even
	// with the defect present — the bug is architecture-dependent, which is
	// why it slipped through op-level smoke tests.
	small := tensor.FromBytes([]uint8{200, 210, 220, 230}, 1, 2, 2, 1)
	outSmall := tensor.New(tensor.U8, 1, 1, 1, 1)
	attrsSmall := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	ctxSmall := ctxFor(graph.OpAvgPool2D, attrsSmall, []*tensor.Tensor{small}, []*quant.Params{p}, outSmall, p)
	if err := avgPoolQuantBuggy(ctxSmall); err != nil {
		t.Fatal(err)
	}
	if outSmall.U[0] != 215 {
		t.Errorf("buggy kernel on short window = %d, want correct 215", outSmall.U[0])
	}
}

func TestMaxPoolAndMeanQuant(t *testing.T) {
	p := quant.AsymmetricU8Params(0, 255)
	in := tensor.FromBytes([]uint8{10, 250, 30, 40}, 1, 2, 2, 1)
	out := tensor.New(tensor.U8, 1, 1, 1, 1)
	attrs := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	if err := maxPoolQuant(ctxFor(graph.OpMaxPool2D, attrs, []*tensor.Tensor{in}, []*quant.Params{p}, out, p)); err != nil {
		t.Fatal(err)
	}
	if out.U[0] != 250 {
		t.Errorf("max = %d", out.U[0])
	}
	mOut := tensor.New(tensor.U8, 1, 1)
	if err := meanQuant(ctxFor(graph.OpMean, graph.Attrs{}, []*tensor.Tensor{in}, []*quant.Params{p}, mOut, p)); err != nil {
		t.Fatal(err)
	}
	if mOut.U[0] != 83 { // (10+250+30+40)/4 = 82.5 -> 83
		t.Errorf("mean = %d, want 83", mOut.U[0])
	}
}

func TestPadQuantFillsZeroPoint(t *testing.T) {
	p := quant.AsymmetricU8Params(-1, 1) // zero point 128 (rounded)
	in := tensor.FromBytes([]uint8{200}, 1, 1, 1, 1)
	out := tensor.New(tensor.U8, 1, 3, 3, 1)
	attrs := graph.Attrs{Paddings: [][2]int{{0, 0}, {1, 1}, {1, 1}, {0, 0}}}
	if err := padQuant(ctxFor(graph.OpPad, attrs, []*tensor.Tensor{in}, []*quant.Params{p}, out, p)); err != nil {
		t.Fatal(err)
	}
	zp := uint8(p.ZeroPoint(0))
	if out.At(0, 0, 0, 0) != float64(zp) || out.At(0, 1, 1, 0) != 200 {
		t.Errorf("pad quant: corner=%v centre=%v zp=%d", out.At(0, 0, 0, 0), out.At(0, 1, 1, 0), zp)
	}
}

// Property: quantized add approximates float add within a few quantization
// steps for random in/out scales.
func TestAddQuantApproximatesFloat(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		a := tensor.New(tensor.F32, 1, n)
		b := tensor.New(tensor.F32, 1, n)
		tensor.RandUniform(rng, a, -1, 1)
		tensor.RandUniform(rng, b, -2, 2)
		pa := quant.AsymmetricU8Params(-1, 1)
		pb := quant.AsymmetricU8Params(-2, 2)
		po := quant.AsymmetricU8Params(-3, 3)
		qa := quant.QuantizeTensorU8(a, pa)
		qb := quant.QuantizeTensorU8(b, pb)
		out := tensor.New(tensor.U8, 1, n)
		ctx := ctxFor(graph.OpAdd, graph.Attrs{}, []*tensor.Tensor{qa, qb}, []*quant.Params{pa, pb}, out, po)
		if err := addQuant(ctx); err != nil {
			return false
		}
		deq := quant.DequantizeTensorU8(out, po)
		for i := 0; i < n; i++ {
			want := float64(a.F[i] + b.F[i])
			if math.Abs(float64(deq.F[i])-want) > 3*po.Scale(0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// addQuantPerElement is the expression addQuant evaluated per element before
// it was tabulated, kept as the oracle.
func addQuantPerElement(a, b uint8, q1, q2, qo *quant.Params, act graph.Activation) uint8 {
	m1, _ := quant.NewMultiplier(q1.Scale(0) / qo.Scale(0))
	m2, _ := quant.NewMultiplier(q2.Scale(0) / qo.Scale(0))
	lo, hi := quantActRange(act, qo)
	v := qo.ZeroPoint(0) + m1.Apply(int32(a)-q1.ZeroPoint(0)) + m2.Apply(int32(b)-q2.ZeroPoint(0))
	return clampU8(v, lo, hi)
}

// TestAddQuantAllPairs holds the table-driven Add to the per-element
// expression on all 65,536 (a, b) byte pairs, on the same-shape loop and on
// the channel-broadcast path, across zero points, scale ratios on both sides
// of 1 and every fused activation.
func TestAddQuantAllPairs(t *testing.T) {
	for i, ps := range [][3]*quant.Params{
		{quant.AsymmetricU8Params(-1, 1), quant.AsymmetricU8Params(-2, 2), quant.AsymmetricU8Params(-3, 3)},
		{quant.PerTensor(0.05, 0), quant.PerTensor(0.003, 255), quant.PerTensor(0.02, 128)},
		{quant.PerTensor(0.01, 255), quant.PerTensor(0.09, 0), quant.PerTensor(0.011, 3)},
	} {
		q1, q2, qo := ps[0], ps[1], ps[2]
		act := graph.Activation(i % 3)
		// Same shape: x walks a fastest, y walks b.
		x, y := tensor.New(tensor.U8, 1, 256, 1, 256), tensor.New(tensor.U8, 1, 256, 1, 256)
		for j := range x.U {
			x.U[j], y.U[j] = uint8(j), uint8(j>>8)
		}
		out := tensor.New(tensor.U8, 1, 256, 1, 256)
		ctx := ctxFor(graph.OpAdd, graph.Attrs{Activation: act}, []*tensor.Tensor{x, y}, []*quant.Params{q1, q2}, out, qo)
		for pass := 0; pass < 2; pass++ { // the second pass runs on the cached tables
			if err := addQuant(ctx); err != nil {
				t.Fatal(err)
			}
			for j, got := range out.U {
				if want := addQuantPerElement(x.U[j], y.U[j], q1, q2, qo, act); got != want {
					t.Fatalf("params %d pass %d: add(%d, %d) = %d, per-element expression %d", i, pass, x.U[j], y.U[j], got, want)
				}
			}
		}
		// Broadcast: y holds one byte per channel.
		yc := tensor.New(tensor.U8, 1, 1, 1, 256)
		for j := range yc.U {
			yc.U[j] = uint8(j)
		}
		for j := range x.U {
			x.U[j] = uint8(j >> 8)
		}
		ctx = ctxFor(graph.OpAdd, graph.Attrs{Activation: act}, []*tensor.Tensor{x, yc}, []*quant.Params{q1, q2}, out, qo)
		if err := addQuant(ctx); err != nil {
			t.Fatal(err)
		}
		for j, got := range out.U {
			if want := addQuantPerElement(x.U[j], yc.U[j&255], q1, q2, qo, act); got != want {
				t.Fatalf("params %d broadcast: add(%d, %d) = %d, per-element expression %d", i, x.U[j], yc.U[j&255], got, want)
			}
		}
	}
}

func TestMulQuantApproximatesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 32
	a := tensor.New(tensor.F32, 1, n)
	b := tensor.New(tensor.F32, 1, n)
	tensor.RandUniform(rng, a, 0, 2)
	tensor.RandUniform(rng, b, 0, 1)
	pa := quant.AsymmetricU8Params(0, 2)
	pb := quant.AsymmetricU8Params(0, 1)
	po := quant.AsymmetricU8Params(0, 2)
	qa := quant.QuantizeTensorU8(a, pa)
	qb := quant.QuantizeTensorU8(b, pb)
	out := tensor.New(tensor.U8, 1, n)
	ctx := ctxFor(graph.OpMul, graph.Attrs{}, []*tensor.Tensor{qa, qb}, []*quant.Params{pa, pb}, out, po)
	if err := mulQuant(ctx); err != nil {
		t.Fatal(err)
	}
	deq := quant.DequantizeTensorU8(out, po)
	for i := 0; i < n; i++ {
		want := float64(a.F[i] * b.F[i])
		if math.Abs(float64(deq.F[i])-want) > 3*po.Scale(0) {
			t.Fatalf("mul[%d]: %v vs %v", i, deq.F[i], want)
		}
	}
}

func TestLUTKernelMatchesFloat(t *testing.T) {
	inP := quant.AsymmetricU8Params(-6, 6)
	outP := quant.AsymmetricU8Params(-1, 6)
	in := tensor.New(tensor.U8, 1, 256)
	for i := 0; i < 256; i++ {
		in.U[i] = uint8(i)
	}
	out := tensor.New(tensor.U8, 1, 256)
	k := lutKernel(hardSwishF64)
	if err := k(ctxFor(graph.OpHardSwish, graph.Attrs{}, []*tensor.Tensor{in}, []*quant.Params{inP}, out, outP)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		real := inP.DequantizeU8(uint8(i), 0)
		want := hardSwishF64(real)
		got := outP.DequantizeU8(out.U[i], 0)
		if math.Abs(got-want) > outP.Scale(0) {
			t.Fatalf("lut[%d]: %v vs %v", i, got, want)
		}
	}
}

func TestReluQuantClampsAtZeroPoint(t *testing.T) {
	p := quant.AsymmetricU8Params(-1, 1)
	zp := uint8(p.ZeroPoint(0))
	in := tensor.FromBytes([]uint8{0, zp - 10, zp, zp + 10, 255}, 1, 5)
	out := tensor.New(tensor.U8, 1, 5)
	if err := reluQuant(ctxFor(graph.OpReLU, graph.Attrs{}, []*tensor.Tensor{in}, []*quant.Params{p}, out, p)); err != nil {
		t.Fatal(err)
	}
	want := []uint8{zp, zp, zp, zp + 10, 255}
	for i := range want {
		if out.U[i] != want[i] {
			t.Errorf("relu[%d] = %d, want %d", i, out.U[i], want[i])
		}
	}
}

func TestSoftmaxQuantRowsSumToOne(t *testing.T) {
	inP := quant.AsymmetricU8Params(-8, 8)
	outP := quant.PerTensor(1.0/255.0, 0)
	rng := rand.New(rand.NewSource(33))
	in := tensor.New(tensor.U8, 2, 10)
	for i := range in.U {
		in.U[i] = uint8(rng.Intn(256))
	}
	out := tensor.New(tensor.U8, 2, 10)
	if err := softmaxQuant(ctxFor(graph.OpSoftmax, graph.Attrs{Axis: 1}, []*tensor.Tensor{in}, []*quant.Params{inP}, out, outP)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		var sum float64
		for i := 0; i < 10; i++ {
			sum += outP.DequantizeU8(out.U[r*10+i], 0)
		}
		if math.Abs(sum-1) > 0.05 {
			t.Errorf("row %d sums to %v", r, sum)
		}
	}
}

func TestQuantizeDequantizeKernels(t *testing.T) {
	p := quant.AsymmetricU8Params(-1, 1)
	in := tensor.FromFloats([]float32{-1, 0, 0.5, 1}, 1, 4)
	q := tensor.New(tensor.U8, 1, 4)
	if err := quantizeKernel(ctxFor(graph.OpQuantize, graph.Attrs{}, []*tensor.Tensor{in}, nil, q, p)); err != nil {
		t.Fatal(err)
	}
	back := tensor.New(tensor.F32, 1, 4)
	if err := dequantizeKernel(ctxFor(graph.OpDequantize, graph.Attrs{}, []*tensor.Tensor{q}, []*quant.Params{p}, back, nil)); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(back, in, 0, p.Scale(0)) {
		t.Errorf("quantize/dequantize round trip: %v -> %v", in.F, back.F)
	}
	if err := quantizeKernel(ctxFor(graph.OpQuantize, graph.Attrs{}, []*tensor.Tensor{q}, nil, q, p)); err == nil {
		t.Error("Quantize accepted non-float input")
	}
}

// TestQuantizeKernelMatchesPerElement holds the hoisted Quantize loop to
// Params.QuantizeU8 per element — the old kernel body — on values that stress
// the rounding and the clamp: half-way points on both sides of zero, the
// range ends, far out-of-range values, infinities and NaN.
func TestQuantizeKernelMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, p := range []*quant.Params{quant.AsymmetricU8Params(-1, 1), quant.PerTensor(0.25, 0), quant.PerTensor(0.1, 255), quant.PerTensor(3e-5, 77)} {
		scale, zp := float32(p.Scale(0)), float32(p.ZeroPoint(0))
		vals := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
			math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32}
		for q := float32(-2); q <= 257; q++ {
			// q-zp real steps from zero: an exact code, and the half-way points around it.
			vals = append(vals, (q-zp)*scale, (q-zp+0.5)*scale, (q-zp-0.5)*scale)
		}
		for i := 0; i < 500; i++ {
			vals = append(vals, (rng.Float32()*300-20-zp)*scale)
		}
		in := tensor.FromFloats(vals, 1, len(vals))
		out := tensor.New(tensor.U8, 1, len(vals))
		if err := quantizeKernel(ctxFor(graph.OpQuantize, graph.Attrs{}, []*tensor.Tensor{in}, nil, out, p)); err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if want := p.QuantizeU8(float64(v), 0); out.U[i] != want {
				t.Errorf("scale %v zp %v: Quantize(%v) = %d, QuantizeU8 gives %d", p.Scale(0), p.ZeroPoint(0), v, out.U[i], want)
			}
		}
	}
}

// TestElementwiseShortInputErrors: a hand-built Ctx whose input is shorter
// than its output is a malformed graph and must come back as an error naming
// the op and both lengths, not as an index-out-of-range panic.
func TestElementwiseShortInputErrors(t *testing.T) {
	p := quant.AsymmetricU8Params(-1, 1)
	f32, u8 := tensor.New(tensor.F32, 1, 3), tensor.New(tensor.U8, 1, 3)
	for _, cse := range []struct {
		kern Kernel
		ctx  *Ctx
		want string
	}{
		{quantizeKernel, ctxFor(graph.OpQuantize, graph.Attrs{}, []*tensor.Tensor{f32}, nil, tensor.New(tensor.U8, 1, 4), p),
			"ops: Quantize input has 3 elements, output 4"},
		{dequantizeKernel, ctxFor(graph.OpDequantize, graph.Attrs{}, []*tensor.Tensor{u8}, []*quant.Params{p}, tensor.New(tensor.F32, 1, 4), nil),
			"ops: Dequantize input has 3 elements, output 4"},
		{addQuant, ctxFor(graph.OpAdd, graph.Attrs{}, []*tensor.Tensor{u8, u8}, []*quant.Params{p, p}, tensor.New(tensor.U8, 1, 4), p),
			"ops: Add input has 3 elements, output 4"},
		{mulQuant, ctxFor(graph.OpMul, graph.Attrs{}, []*tensor.Tensor{u8, u8}, []*quant.Params{p, p}, tensor.New(tensor.U8, 1, 5), p),
			"ops: Mul input has 3 elements, output 5"},
	} {
		if err := cse.kern(cse.ctx); err == nil || err.Error() != cse.want {
			t.Errorf("%v: error %v, want %q", cse.ctx.Node.Op, err, cse.want)
		}
	}
}

func TestConcatQuantSameAndDifferentParams(t *testing.T) {
	p := quant.AsymmetricU8Params(0, 1)
	a := tensor.FromBytes([]uint8{10, 20}, 1, 1, 1, 2)
	b := tensor.FromBytes([]uint8{30}, 1, 1, 1, 1)
	out := tensor.New(tensor.U8, 1, 1, 1, 3)
	ctx := &Ctx{Node: &graph.Node{Op: graph.OpConcat, Attrs: graph.Attrs{Axis: 3}},
		Inputs: []*tensor.Tensor{a, b}, Outputs: []*tensor.Tensor{out},
		InQ: []*quant.Params{p, p}, OutQ: []*quant.Params{p}}
	if err := concatQuant(ctx); err != nil {
		t.Fatal(err)
	}
	if out.U[0] != 10 || out.U[2] != 30 {
		t.Errorf("concat fast path: %v", out.U)
	}
	// Different params: input scale half of output scale -> values halve.
	pHalf := quant.AsymmetricU8Params(0, 0.5)
	ctx2 := &Ctx{Node: &graph.Node{Op: graph.OpConcat, Attrs: graph.Attrs{Axis: 3}},
		Inputs: []*tensor.Tensor{a, b}, Outputs: []*tensor.Tensor{out},
		InQ: []*quant.Params{pHalf, p}, OutQ: []*quant.Params{p}}
	if err := concatQuant(ctx2); err != nil {
		t.Fatal(err)
	}
	if out.U[0] != 5 || out.U[2] != 30 {
		t.Errorf("concat requant path: %v", out.U)
	}
}

func TestHybridDenseMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	in := tensor.New(tensor.F32, 2, 16)
	tensor.RandUniform(rng, in, -1, 1)
	w := tensor.New(tensor.F32, 4, 16)
	tensor.RandUniform(rng, w, -0.5, 0.5)
	b := tensor.New(tensor.F32, 4)
	floatOut := tensor.New(tensor.F32, 2, 4)
	if err := denseFloatRef(ctxFor(graph.OpDense, graph.Attrs{}, []*tensor.Tensor{in, w, b}, nil, floatOut, nil)); err != nil {
		t.Fatal(err)
	}
	wI8, wP, err := quant.QuantizeWeightsPerChannel(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(tensor.F32, 2, 4)
	ctx := ctxFor(graph.OpDense, graph.Attrs{}, []*tensor.Tensor{in, wI8, b},
		[]*quant.Params{nil, wP, nil}, out, nil)
	if err := denseHybrid(ctx); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(out, floatOut, 0.02, 0.02) {
		t.Error("hybrid dense diverges from float")
	}
}

func TestHybridEmbedding(t *testing.T) {
	table := tensor.FromFloats([]float32{0.5, -0.5, 1, -1}, 2, 2)
	tI8, tP, err := quant.QuantizeWeightsPerTensor(table)
	if err != nil {
		t.Fatal(err)
	}
	ids := tensor.FromInt32([]int32{1, 0}, 1, 2)
	out := tensor.New(tensor.F32, 1, 2, 2)
	ctx := ctxFor(graph.OpEmbedding, graph.Attrs{}, []*tensor.Tensor{ids, tI8},
		[]*quant.Params{nil, tP}, out, nil)
	if err := embeddingHybrid(ctx); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(out.F[0])-1) > 0.02 || math.Abs(float64(out.F[2])-0.5) > 0.02 {
		t.Errorf("hybrid embedding = %v", out.F)
	}
}

func TestQuantActRange(t *testing.T) {
	p := quant.AsymmetricU8Params(-1, 3) // zp should be 64ish
	lo, hi := quantActRange(graph.ActNone, p)
	if lo != 0 || hi != 255 {
		t.Errorf("none range = [%d, %d]", lo, hi)
	}
	lo, _ = quantActRange(graph.ActReLU, p)
	if lo != p.ZeroPoint(0) {
		t.Errorf("relu lo = %d, want zp %d", lo, p.ZeroPoint(0))
	}
	lo, hi = quantActRange(graph.ActReLU6, p)
	want6 := p.ZeroPoint(0) + int32(math.Round(6/p.Scale(0)))
	if lo != p.ZeroPoint(0) || hi != min32(255, want6) {
		t.Errorf("relu6 range = [%d, %d]", lo, hi)
	}
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func TestRoundDiv(t *testing.T) {
	cases := []struct{ a, b, want int32 }{
		{10, 4, 3}, {11, 4, 3}, {-10, 4, -3}, {-11, 4, -3}, {9, 3, 3}, {-9, 3, -3},
	}
	for _, cse := range cases {
		if got := roundDiv(cse.a, cse.b); got != cse.want {
			t.Errorf("roundDiv(%d, %d) = %d, want %d", cse.a, cse.b, got, cse.want)
		}
	}
}
