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

// ctxFor builds a kernel context directly, bypassing the interpreter.
func ctxFor(op graph.OpType, attrs graph.Attrs, ins []*tensor.Tensor, inQ []*quant.Params,
	out *tensor.Tensor, outQ *quant.Params) *Ctx {
	if inQ == nil {
		inQ = make([]*quant.Params, len(ins))
	}
	return &Ctx{
		Node:    &graph.Node{Op: op, Name: "t", Attrs: attrs},
		Inputs:  ins,
		Outputs: []*tensor.Tensor{out},
		InQ:     inQ,
		OutQ:    []*quant.Params{outQ},
	}
}

func randF32(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(tensor.F32, shape...)
	tensor.RandUniform(rng, t, -1, 1)
	return t
}

func TestConvFloatHandComputed(t *testing.T) {
	// 1x2x2x1 input, 1x1 kernel of weight 2, bias 0.5: out = 2*in + 0.5.
	in := tensor.FromFloats([]float32{1, 2, 3, 4}, 1, 2, 2, 1)
	w := tensor.FromFloats([]float32{2}, 1, 1, 1, 1)
	b := tensor.FromFloats([]float32{0.5}, 1)
	out := tensor.New(tensor.F32, 1, 2, 2, 1)
	ctx := ctxFor(graph.OpConv2D, graph.Attrs{StrideH: 1, StrideW: 1}, []*tensor.Tensor{in, w, b}, nil, out, nil)
	if err := convFloatRef(ctx); err != nil {
		t.Fatal(err)
	}
	want := []float32{2.5, 4.5, 6.5, 8.5}
	for i := range want {
		if out.F[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out.F[i], want[i])
		}
	}
}

func TestConvFloatIdentityKernel(t *testing.T) {
	// A centered delta 3x3 kernel with SAME padding reproduces the input.
	rng := rand.New(rand.NewSource(1))
	in := randF32(rng, 1, 5, 5, 2)
	w := tensor.New(tensor.F32, 2, 3, 3, 2)
	w.SetAt(1, 0, 1, 1, 0) // out ch 0 copies in ch 0
	w.SetAt(1, 1, 1, 1, 1) // out ch 1 copies in ch 1
	out := tensor.New(tensor.F32, 1, 5, 5, 2)
	attrs := graph.Attrs{StrideH: 1, StrideW: 1, PadT: 1, PadB: 1, PadL: 1, PadR: 1}
	ctx := ctxFor(graph.OpConv2D, attrs, []*tensor.Tensor{in, w}, nil, out, nil)
	if err := convFloatRef(ctx); err != nil {
		t.Fatal(err)
	}
	for i := range in.F {
		if math.Abs(float64(out.F[i]-in.F[i])) > 1e-6 {
			t.Fatalf("delta kernel not identity at %d: %v vs %v", i, out.F[i], in.F[i])
		}
	}
}

// Property: the optimized conv (im2col+GEMM) matches the reference conv.
func TestConvRefVsOptProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ih := 4 + rng.Intn(6)
		iw := 4 + rng.Intn(6)
		ic := 1 + rng.Intn(4)
		oc := 1 + rng.Intn(5)
		k := 1 + 2*rng.Intn(2) // 1 or 3
		stride := 1 + rng.Intn(2)
		in := randF32(rng, 1, ih, iw, ic)
		w := randF32(rng, oc, k, k, ic)
		b := randF32(rng, oc)
		pt, pb := graph.SamePadding(ih, k, stride, 1)
		pl, pr := graph.SamePadding(iw, k, stride, 1)
		attrs := graph.Attrs{StrideH: stride, StrideW: stride, PadT: pt, PadB: pb, PadL: pl, PadR: pr,
			Activation: graph.Activation(rng.Intn(3))}
		outShape, err := graph.InferShape(graph.OpConv2D, attrs, [][]int{in.Shape, w.Shape})
		if err != nil {
			return false
		}
		o1 := tensor.New(tensor.F32, outShape...)
		o2 := tensor.New(tensor.F32, outShape...)
		if err := convFloatRef(ctxFor(graph.OpConv2D, attrs, []*tensor.Tensor{in, w, b}, nil, o1, nil)); err != nil {
			return false
		}
		if err := convFloatOpt(ctxFor(graph.OpConv2D, attrs, []*tensor.Tensor{in, w, b}, nil, o2, nil)); err != nil {
			return false
		}
		return tensor.AllClose(o1, o2, 1e-5, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: optimized depthwise matches reference depthwise bit for bit,
// on the tiled kernel (multiplier 1) and on the fallback (multiplier 2).
func TestDepthwiseRefVsOptProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ih := 4 + rng.Intn(6)
		ic := 1 + rng.Intn(6)
		mult := 1 + rng.Intn(2)
		stride := 1 + rng.Intn(2)
		in := randF32(rng, 1, ih, ih, ic)
		w := randF32(rng, 1, 3, 3, ic*mult)
		b := randF32(rng, ic*mult)
		pt, pb := graph.SamePadding(ih, 3, stride, 1)
		attrs := graph.Attrs{StrideH: stride, StrideW: stride, PadT: pt, PadB: pb, PadL: pt, PadR: pb,
			DepthMultiplier: mult}
		outShape, err := graph.InferShape(graph.OpDepthwiseConv2D, attrs, [][]int{in.Shape, w.Shape})
		if err != nil {
			return false
		}
		o1 := tensor.New(tensor.F32, outShape...)
		o2 := tensor.New(tensor.F32, outShape...)
		if err := depthwiseFloatRef(ctxFor(graph.OpDepthwiseConv2D, attrs, []*tensor.Tensor{in, w, b}, nil, o1, nil)); err != nil {
			return false
		}
		if err := depthwiseFloatOpt(ctxFor(graph.OpDepthwiseConv2D, attrs, []*tensor.Tensor{in, w, b}, nil, o2, nil)); err != nil {
			return false
		}
		return sameF32Bits(o1.F, o2.F) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: dense ref matches dense opt, and conv is linear in its input.
func TestDenseRefVsOptAndLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randF32(rng, 3, 17)
	w := randF32(rng, 9, 17)
	b := randF32(rng, 9)
	o1 := tensor.New(tensor.F32, 3, 9)
	o2 := tensor.New(tensor.F32, 3, 9)
	if err := denseFloatRef(ctxFor(graph.OpDense, graph.Attrs{}, []*tensor.Tensor{in, w, b}, nil, o1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := denseFloatOpt(ctxFor(graph.OpDense, graph.Attrs{}, []*tensor.Tensor{in, w, b}, nil, o2, nil)); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(o1, o2, 1e-5, 1e-5) {
		t.Error("dense ref vs opt mismatch")
	}
	// Linearity: dense(2x) - bias == 2*(dense(x) - bias).
	in2 := in.Clone()
	for i := range in2.F {
		in2.F[i] *= 2
	}
	o3 := tensor.New(tensor.F32, 3, 9)
	if err := denseFloatRef(ctxFor(graph.OpDense, graph.Attrs{}, []*tensor.Tensor{in2, w, b}, nil, o3, nil)); err != nil {
		t.Fatal(err)
	}
	for i := range o1.F {
		left := float64(o3.F[i] - b.F[i%9])
		right := 2 * float64(o1.F[i]-b.F[i%9])
		if math.Abs(left-right) > 1e-4 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, left, right)
		}
	}
}

func TestAvgPoolFloat(t *testing.T) {
	in := tensor.FromFloats([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1, 4, 4, 1)
	out := tensor.New(tensor.F32, 1, 2, 2, 1)
	attrs := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	if err := avgPoolFloat(ctxFor(graph.OpAvgPool2D, attrs, []*tensor.Tensor{in}, nil, out, nil)); err != nil {
		t.Fatal(err)
	}
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i := range want {
		if out.F[i] != want[i] {
			t.Errorf("avg[%d] = %v, want %v", i, out.F[i], want[i])
		}
	}
}

func TestMaxPoolFloat(t *testing.T) {
	in := tensor.FromFloats([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1, 4, 4, 1)
	out := tensor.New(tensor.F32, 1, 2, 2, 1)
	attrs := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	if err := maxPoolFloat(ctxFor(graph.OpMaxPool2D, attrs, []*tensor.Tensor{in}, nil, out, nil)); err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if out.F[i] != want[i] {
			t.Errorf("max[%d] = %v, want %v", i, out.F[i], want[i])
		}
	}
}

func TestMeanFloat(t *testing.T) {
	in := tensor.FromFloats([]float32{1, 10, 2, 20, 3, 30, 4, 40}, 1, 2, 2, 2)
	out := tensor.New(tensor.F32, 1, 2)
	if err := meanFloat(ctxFor(graph.OpMean, graph.Attrs{}, []*tensor.Tensor{in}, nil, out, nil)); err != nil {
		t.Fatal(err)
	}
	if out.F[0] != 2.5 || out.F[1] != 25 {
		t.Errorf("mean = %v", out.F)
	}
}

func TestPadFloat(t *testing.T) {
	in := tensor.FromFloats([]float32{1, 2, 3, 4}, 1, 2, 2, 1)
	out := tensor.New(tensor.F32, 1, 4, 4, 1)
	attrs := graph.Attrs{Paddings: [][2]int{{0, 0}, {1, 1}, {1, 1}, {0, 0}}}
	if err := padFloat(ctxFor(graph.OpPad, attrs, []*tensor.Tensor{in}, nil, out, nil)); err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0, 0, 0) != 0 || out.At(0, 1, 1, 0) != 1 || out.At(0, 2, 2, 0) != 4 || out.At(0, 3, 3, 0) != 0 {
		t.Errorf("pad layout wrong: %v", out.F)
	}
}

func TestAddMulBroadcast(t *testing.T) {
	x := tensor.FromFloats([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 1, 2, 2, 2)
	gate := tensor.FromFloats([]float32{10, 100}, 1, 2)
	out := tensor.New(tensor.F32, 1, 2, 2, 2)
	if err := mulFloat(ctxFor(graph.OpMul, graph.Attrs{}, []*tensor.Tensor{x, gate}, nil, out, nil)); err != nil {
		t.Fatal(err)
	}
	want := []float32{10, 200, 30, 400, 50, 600, 70, 800}
	for i := range want {
		if out.F[i] != want[i] {
			t.Errorf("mul[%d] = %v, want %v", i, out.F[i], want[i])
		}
	}
	if err := addFloat(ctxFor(graph.OpAdd, graph.Attrs{}, []*tensor.Tensor{x, x}, nil, out, nil)); err != nil {
		t.Fatal(err)
	}
	if out.F[3] != 8 {
		t.Errorf("add = %v", out.F)
	}
	bad := tensor.New(tensor.F32, 1, 3)
	if err := addFloat(ctxFor(graph.OpAdd, graph.Attrs{}, []*tensor.Tensor{x, bad}, nil, out, nil)); err == nil {
		t.Error("accepted invalid broadcast")
	}
}

func TestConcatFloat(t *testing.T) {
	a := tensor.FromFloats([]float32{1, 2, 3, 4}, 1, 2, 1, 2)
	b := tensor.FromFloats([]float32{9, 8}, 1, 2, 1, 1)
	out := tensor.New(tensor.F32, 1, 2, 1, 3)
	if err := concatFloat(ctxFor(graph.OpConcat, graph.Attrs{Axis: 3}, []*tensor.Tensor{a, b}, nil, out, nil)); err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 9, 3, 4, 8}
	for i := range want {
		if out.F[i] != want[i] {
			t.Errorf("concat[%d] = %v, want %v", i, out.F[i], want[i])
		}
	}
}

func TestActivationFunctions(t *testing.T) {
	cases := []struct {
		f    func(float64) float64
		x, y float64
	}{
		{reluF64, -1, 0}, {reluF64, 2, 2},
		{relu6F64, 7, 6}, {relu6F64, -1, 0}, {relu6F64, 3, 3},
		{hardSigmoidF64, -4, 0}, {hardSigmoidF64, 4, 1}, {hardSigmoidF64, 0, 0.5},
		{hardSwishF64, -4, 0}, {hardSwishF64, 4, 4}, {hardSwishF64, 0, 0},
		{sigmoidF64, 0, 0.5},
	}
	for i, cse := range cases {
		if got := cse.f(cse.x); math.Abs(got-cse.y) > 1e-9 {
			t.Errorf("case %d: f(%v) = %v, want %v", i, cse.x, got, cse.y)
		}
	}
}

// Property: softmax rows sum to 1 and are shift-invariant.
func TestSoftmaxProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randF32(rng, 2, 7)
		out := tensor.New(tensor.F32, 2, 7)
		if err := softmaxFloat(ctxFor(graph.OpSoftmax, graph.Attrs{Axis: 1}, []*tensor.Tensor{in}, nil, out, nil)); err != nil {
			return false
		}
		for r := 0; r < 2; r++ {
			var sum float64
			for i := 0; i < 7; i++ {
				sum += float64(out.F[r*7+i])
			}
			if math.Abs(sum-1) > 1e-5 {
				return false
			}
		}
		// Shift invariance.
		shifted := in.Clone()
		for i := range shifted.F {
			shifted.F[i] += 3.7
		}
		out2 := tensor.New(tensor.F32, 2, 7)
		if err := softmaxFloat(ctxFor(graph.OpSoftmax, graph.Attrs{Axis: 1}, []*tensor.Tensor{shifted}, nil, out2, nil)); err != nil {
			return false
		}
		return tensor.AllClose(out, out2, 1e-4, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBatchNormFloat(t *testing.T) {
	x := tensor.FromFloats([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	gamma := tensor.FromFloats([]float32{2, 1}, 2)
	beta := tensor.FromFloats([]float32{0, 10}, 2)
	mean := tensor.FromFloats([]float32{1, 2}, 2)
	variance := tensor.FromFloats([]float32{4, 1}, 2)
	out := tensor.New(tensor.F32, 1, 1, 2, 2)
	ctx := ctxFor(graph.OpBatchNorm, graph.Attrs{Eps: 0},
		[]*tensor.Tensor{x, gamma, beta, mean, variance}, nil, out, nil)
	if err := batchNormFloat(ctx); err != nil {
		t.Fatal(err)
	}
	// ch0: gamma*(x-1)/2: x=1 -> 0; x=3 -> 2. ch1: (x-2)/1 + 10: x=2 -> 10; x=4 -> 12.
	want := []float32{0, 10, 2, 12}
	for i := range want {
		if math.Abs(float64(out.F[i]-want[i])) > 1e-4 {
			t.Errorf("bn[%d] = %v, want %v", i, out.F[i], want[i])
		}
	}
}

func TestLayerNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randF32(rng, 2, 3, 8)
	gamma := tensor.New(tensor.F32, 8)
	gamma.Fill(1)
	beta := tensor.New(tensor.F32, 8)
	out := tensor.New(tensor.F32, 2, 3, 8)
	if err := layerNormFloat(ctxFor(graph.OpLayerNorm, graph.Attrs{}, []*tensor.Tensor{x, gamma, beta}, nil, out, nil)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		var mean, sq float64
		for i := 0; i < 8; i++ {
			v := float64(out.F[r*8+i])
			mean += v
			sq += v * v
		}
		mean /= 8
		variance := sq/8 - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Errorf("row %d: mean %v var %v", r, mean, variance)
		}
	}
}

func TestEmbeddingFloat(t *testing.T) {
	ids := tensor.FromInt32([]int32{1, 0, 2}, 1, 3)
	table := tensor.FromFloats([]float32{0, 0, 1, 1, 2, 2}, 3, 2)
	out := tensor.New(tensor.F32, 1, 3, 2)
	if err := embeddingFloat(ctxFor(graph.OpEmbedding, graph.Attrs{}, []*tensor.Tensor{ids, table}, nil, out, nil)); err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 1, 0, 0, 2, 2}
	for i := range want {
		if out.F[i] != want[i] {
			t.Errorf("emb[%d] = %v, want %v", i, out.F[i], want[i])
		}
	}
	bad := tensor.FromInt32([]int32{5}, 1, 1)
	outBad := tensor.New(tensor.F32, 1, 1, 2)
	if err := embeddingFloat(ctxFor(graph.OpEmbedding, graph.Attrs{}, []*tensor.Tensor{bad, table}, nil, outBad, nil)); err == nil {
		t.Error("accepted out-of-vocab id")
	}
}

// With zero Q/K projections every attention weight is uniform, so the
// attention output is the mean of the V projections — an analytically
// checkable case.
func TestSelfAttentionUniformCase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const T, D = 4, 6
	x := randF32(rng, 1, T, D)
	zeroW := tensor.New(tensor.F32, D, D)
	zeroB := tensor.New(tensor.F32, D)
	wv := randF32(rng, D, D)
	bv := randF32(rng, D)
	// Wo = identity, bo = 0.
	wo := tensor.New(tensor.F32, D, D)
	for i := 0; i < D; i++ {
		wo.F[i*D+i] = 1
	}
	out := tensor.New(tensor.F32, 1, T, D)
	ctx := ctxFor(graph.OpSelfAttention, graph.Attrs{NumHeads: 2},
		[]*tensor.Tensor{x, zeroW, zeroB, zeroW, zeroB, wv, bv, wo, tensor.New(tensor.F32, D)}, nil, out, nil)
	if err := selfAttentionFloat(ctx); err != nil {
		t.Fatal(err)
	}
	// Expected: mean over t of V(x_t).
	vproj := make([]float32, T*D)
	for ti := 0; ti < T; ti++ {
		for o := 0; o < D; o++ {
			acc := bv.F[o]
			for i := 0; i < D; i++ {
				acc += x.F[ti*D+i] * wv.F[o*D+i]
			}
			vproj[ti*D+o] = acc
		}
	}
	for o := 0; o < D; o++ {
		var mean float32
		for ti := 0; ti < T; ti++ {
			mean += vproj[ti*D+o]
		}
		mean /= T
		for ti := 0; ti < T; ti++ {
			if math.Abs(float64(out.F[ti*D+o]-mean)) > 1e-4 {
				t.Fatalf("attention[%d,%d] = %v, want uniform mean %v", ti, o, out.F[ti*D+o], mean)
			}
		}
	}
}

func TestResizeBilinearFloatIdentityAndConst(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := randF32(rng, 1, 5, 5, 2)
	out := tensor.New(tensor.F32, 1, 5, 5, 2)
	if err := resizeBilinearFloat(ctxFor(graph.OpResizeBilinear, graph.Attrs{TargetH: 5, TargetW: 5}, []*tensor.Tensor{in}, nil, out, nil)); err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(in, out, 1e-6, 1e-6) {
		t.Error("identity resize changed values")
	}
	cst := tensor.New(tensor.F32, 1, 4, 4, 1)
	cst.Fill(3)
	out2 := tensor.New(tensor.F32, 1, 9, 9, 1)
	if err := resizeBilinearFloat(ctxFor(graph.OpResizeBilinear, graph.Attrs{TargetH: 9, TargetW: 9}, []*tensor.Tensor{cst}, nil, out2, nil)); err != nil {
		t.Fatal(err)
	}
	for _, v := range out2.F {
		if math.Abs(float64(v)-3) > 1e-6 {
			t.Fatalf("constant resize produced %v", v)
		}
	}
}

func TestReshapeAnyCopies(t *testing.T) {
	in := tensor.FromFloats([]float32{1, 2, 3, 4}, 2, 2)
	out := tensor.New(tensor.F32, 4)
	if err := reshapeAny(ctxFor(graph.OpReshape, graph.Attrs{NewShape: []int{4}}, []*tensor.Tensor{in}, nil, out, nil)); err != nil {
		t.Fatal(err)
	}
	if out.F[3] != 4 {
		t.Error("reshape copy")
	}
}

func TestKindOf(t *testing.T) {
	tensors := []graph.TensorInfo{
		{Name: "f", DType: tensor.F32},
		{Name: "u", DType: tensor.U8},
		{Name: "w8", DType: tensor.I8, Const: true},
		{Name: "fw", DType: tensor.F32, Const: true},
	}
	n := &graph.Node{Op: graph.OpDense, Inputs: []int{0, 3}, Outputs: []int{0}}
	if k := KindOf(n, tensors); k != KindFloat {
		t.Errorf("float dense kind = %v", k)
	}
	n = &graph.Node{Op: graph.OpDense, Inputs: []int{1, 2}, Outputs: []int{1}}
	if k := KindOf(n, tensors); k != KindQuant {
		t.Errorf("quant dense kind = %v", k)
	}
	n = &graph.Node{Op: graph.OpDense, Inputs: []int{0, 2}, Outputs: []int{0}}
	if k := KindOf(n, tensors); k != KindHybrid {
		t.Errorf("hybrid dense kind = %v", k)
	}
	n = &graph.Node{Op: graph.OpQuantize, Inputs: []int{0}, Outputs: []int{1}}
	if k := KindOf(n, tensors); k != KindQuant {
		t.Errorf("quantize kind = %v", k)
	}
}

func TestResolverLookup(t *testing.T) {
	for _, r := range []*Resolver{NewReference(Fixed()), NewOptimized(Fixed()), NewOptimized(Historical())} {
		if _, err := r.Lookup(graph.OpConv2D, KindFloat); err != nil {
			t.Errorf("%s: conv float missing: %v", r.Name(), err)
		}
		if _, err := r.Lookup(graph.OpConv2D, KindQuant); err != nil {
			t.Errorf("%s: conv quant missing: %v", r.Name(), err)
		}
		if _, err := r.Lookup(graph.OpBatchNorm, KindQuant); err == nil {
			t.Errorf("%s: quantized batchnorm should be unsupported", r.Name())
		}
	}
	if NewReference(Fixed()).Name() != "reference" || NewOptimized(Fixed()).Name() != "optimized" {
		t.Error("resolver names")
	}
}

func TestEstimateCost(t *testing.T) {
	shapes := map[int][]int{0: {1, 8, 8, 3}, 1: {16, 3, 3, 3}, 2: {16}, 3: {1, 8, 8, 16}}
	shapeOf := func(id int) []int { return shapes[id] }
	sizeOf := func(id int) int { return 4 }
	n := &graph.Node{Op: graph.OpConv2D, Inputs: []int{0, 1, 2}, Outputs: []int{3}}
	c := EstimateCostBackend(n, KindFloat, BackendTiled, shapeOf, sizeOf)
	wantMACs := int64(1 * 8 * 8 * 16 * 3 * 3 * 3)
	if c.MACs != wantMACs {
		t.Errorf("conv MACs = %d, want %d", c.MACs, wantMACs)
	}
	if c.Bytes <= 0 {
		t.Error("bytes should be positive")
	}
	n = &graph.Node{Op: graph.OpDepthwiseConv2D, Inputs: []int{0, 1}, Outputs: []int{3}}
	c = EstimateCostBackend(n, KindFloat, BackendTiled, shapeOf, sizeOf)
	if c.MACs != int64(1*8*8*16*3*3) {
		t.Errorf("dw MACs = %d", c.MACs)
	}
}
