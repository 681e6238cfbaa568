package ops

import (
	"math/rand"
	"testing"

	"mlexray/internal/graph"
	"mlexray/internal/quant"
	"mlexray/internal/tensor"
)

// Micro-benchmarks of the kernel layer: the optimized-vs-reference speed gap
// these measure is the real-wall-clock analogue of the device simulator's
// Table 4 coefficients.

func benchConvInputs(b *testing.B, ih, ic, oc, k int) (*tensor.Tensor, *tensor.Tensor, *tensor.Tensor, graph.Attrs, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	in := tensor.New(tensor.F32, 1, ih, ih, ic)
	tensor.RandUniform(rng, in, -1, 1)
	w := tensor.New(tensor.F32, oc, k, k, ic)
	tensor.RandUniform(rng, w, -0.5, 0.5)
	bias := tensor.New(tensor.F32, oc)
	pt, pb := graph.SamePadding(ih, k, 1, 1)
	attrs := graph.Attrs{StrideH: 1, StrideW: 1, PadT: pt, PadB: pb, PadL: pt, PadR: pb}
	outShape, err := graph.InferShape(graph.OpConv2D, attrs, [][]int{in.Shape, w.Shape})
	if err != nil {
		b.Fatal(err)
	}
	return in, w, bias, attrs, outShape
}

func BenchmarkConvFloatReference(b *testing.B) {
	in, w, bias, attrs, outShape := benchConvInputs(b, 28, 16, 32, 3)
	out := tensor.New(tensor.F32, outShape...)
	ctx := ctxFor(graph.OpConv2D, attrs, []*tensor.Tensor{in, w, bias}, nil, out, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := convFloatRef(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvFloatOptimized(b *testing.B) {
	in, w, bias, attrs, outShape := benchConvInputs(b, 28, 16, 32, 3)
	out := tensor.New(tensor.F32, outShape...)
	ctx := ctxFor(graph.OpConv2D, attrs, []*tensor.Tensor{in, w, bias}, nil, out, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := convFloatOpt(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func benchQuantConvCtx(b *testing.B) (*Ctx, Kernel, Kernel) {
	b.Helper()
	in, w, bias, attrs, outShape := benchConvInputs(b, 28, 16, 32, 3)
	inP := quant.AsymmetricU8Params(-1, 1)
	inQ8 := quant.QuantizeTensorU8(in, inP)
	wI8, wP, err := quant.QuantizeWeightsPerChannel(w, 0)
	if err != nil {
		b.Fatal(err)
	}
	bI32 := quant.QuantizeBias(bias, inP.Scale(0), wP)
	outP := quant.AsymmetricU8Params(-4, 4)
	out := tensor.New(tensor.U8, outShape...)
	ctx := ctxFor(graph.OpConv2D, attrs, []*tensor.Tensor{inQ8, wI8, bI32},
		[]*quant.Params{inP, wP, nil}, out, outP)
	return ctx, convQuantRef, convQuantOpt
}

func BenchmarkConvQuantReference(b *testing.B) {
	ctx, ref, _ := benchQuantConvCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ref(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvQuantOptimized(b *testing.B) {
	ctx, _, opt := benchQuantConvCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := opt(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDepthwiseQuant(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := tensor.New(tensor.F32, 1, 28, 28, 32)
	tensor.RandUniform(rng, in, -1, 1)
	w := tensor.New(tensor.F32, 1, 3, 3, 32)
	tensor.RandUniform(rng, w, -0.5, 0.5)
	inP := quant.AsymmetricU8Params(-1, 1)
	inQ8 := quant.QuantizeTensorU8(in, inP)
	wI8, wP, err := quant.QuantizeWeightsPerChannel(w, 3)
	if err != nil {
		b.Fatal(err)
	}
	outP := quant.AsymmetricU8Params(-4, 4)
	attrs := graph.Attrs{StrideH: 1, StrideW: 1, PadT: 1, PadB: 1, PadL: 1, PadR: 1, DepthMultiplier: 1}
	out := tensor.New(tensor.U8, 1, 28, 28, 32)
	// One fixture, the three kernels a resolver can register: the loop nest,
	// the fixed tiled kernel, and the historical one Historical() runs.
	for _, k := range []struct {
		name string
		kern Kernel
	}{{"ref", depthwiseQuantRef}, {"tiled", depthwiseQuantOpt}, {"historical", depthwiseQuantOptBuggy}} {
		b.Run(k.name, func(b *testing.B) {
			ctx := ctxFor(graph.OpDepthwiseConv2D, attrs, []*tensor.Tensor{inQ8, wI8},
				[]*quant.Params{inP, wP}, out, outP)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.kern(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The model's three depthwise shapes, fixed and historical, Go kernels
	// against AVX2 tiles.
	benchModelLayersInt8(b, func(op graph.OpType) bool { return op == graph.OpDepthwiseConv2D })
}

// benchModelLayersInt8 is benchModelLayers for the int8 kernels: every
// mobilenetv2-mini layer shape of one op class through each of its tiled int8
// kernels, once on the Go kernels and once on the AVX2 tiles.
func benchModelLayersInt8(b *testing.B, want func(graph.OpType) bool) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range modelLayerShapes() {
		if !want(s.p.op) {
			continue
		}
		ins, qps, outP := randQuantOperands(rng, s.p, 128, 128, false)
		for _, k := range int8Kernels(s.p.op) {
			for _, simd := range []bool{false, true} {
				name := s.name + "/" + k.name + "-int8/go"
				if simd {
					name = s.name + "/" + k.name + "-int8/avx2"
				}
				b.Run(name, func(b *testing.B) {
					if simd {
						needAVX2(b)
					}
					out := tensor.New(tensor.U8, s.p.shape...)
					ctx := ctxForBackend(BackendTiled, s.p.op, s.p.attrs, ins, qps, out, outP)
					withSIMD(simd, func() {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if err := k.opt(ctx); err != nil {
								b.Fatal(err)
							}
						}
					})
				})
			}
		}
	}
}

func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const m, n, k = 196, 64, 144
	a := make([]float32, m*k)
	bb := make([]float32, n*k)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range bb {
		bb[i] = float32(rng.NormFloat64())
	}
	b.SetBytes(int64(4 * (m*k + n*k + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemmTiledFusedF32(a, bb, nil, c, m, n, k, graph.ActNone)
	}
}

// BenchmarkGemmBackend races the kernel backends on a MobileNet-ish 3x3
// conv layer, float and quantized — the per-op view of the whole-model
// invoke_gemm_* entries in BENCH_replay.json — and then, per layer shape of
// mobilenetv2-mini, the tiled backend's Go kernels against its AVX2 tiles,
// float and int8.
func BenchmarkGemmBackend(b *testing.B) {
	for _, backend := range Backends() {
		backend := backend
		b.Run("conv-float/"+backend.String(), func(b *testing.B) {
			in, w, bias, attrs, outShape := benchConvInputs(b, 28, 16, 32, 3)
			out := tensor.New(tensor.F32, outShape...)
			ctx := ctxForBackend(backend, graph.OpConv2D, attrs, []*tensor.Tensor{in, w, bias}, nil, out, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := convFloatOpt(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, backend := range Backends() {
		backend := backend
		b.Run("conv-quant/"+backend.String(), func(b *testing.B) {
			ctx, _, opt := benchQuantConvCtx(b)
			ctx.Backend = backend
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := opt(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, backend := range Backends() {
		backend := backend
		b.Run("depthwise-float/"+backend.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			in := tensor.New(tensor.F32, 1, 28, 28, 32)
			tensor.RandUniform(rng, in, -1, 1)
			w := tensor.New(tensor.F32, 1, 3, 3, 32)
			tensor.RandUniform(rng, w, -0.5, 0.5)
			bias := tensor.New(tensor.F32, 32)
			attrs := graph.Attrs{StrideH: 1, StrideW: 1, PadT: 1, PadB: 1, PadL: 1, PadR: 1, DepthMultiplier: 1}
			out := tensor.New(tensor.F32, 1, 28, 28, 32)
			ctx := ctxForBackend(backend, graph.OpDepthwiseConv2D, attrs, []*tensor.Tensor{in, w, bias}, nil, out, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := depthwiseFloatOpt(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The model's seven conv shapes (the RGB stem and six pointwise GEMMs)
	// and fc, Go kernels against AVX2 tiles, float and int8.
	notDW := func(op graph.OpType) bool { return op != graph.OpDepthwiseConv2D }
	benchModelLayers(b, notDW)
	benchModelLayersInt8(b, notDW)
}

func BenchmarkSoftmaxFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := tensor.New(tensor.F32, 64, 10)
	tensor.RandUniform(rng, in, -5, 5)
	out := tensor.New(tensor.F32, 64, 10)
	ctx := ctxFor(graph.OpSoftmax, graph.Attrs{Axis: 1}, []*tensor.Tensor{in}, nil, out, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := softmaxFloat(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchModelLayers runs every mobilenetv2-mini layer shape of one op class
// through its tiled kernel, once on the Go kernels and once on the AVX2 tiles
// — the per-layer race behind the whole-frame numbers.
func benchModelLayers(b *testing.B, want func(graph.OpType) bool) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range modelLayerShapes() {
		if !want(s.p.op) {
			continue
		}
		ins := simdOperands(rng, s.p, 0, true) // plain noise: no denormal stalls
		for _, simd := range []bool{false, true} {
			name := s.name + "/go"
			if simd {
				name = s.name + "/avx2"
			}
			b.Run(name, func(b *testing.B) {
				if simd {
					needAVX2(b)
				}
				out := tensor.New(tensor.F32, s.p.shape...)
				ctx := ctxForBackend(BackendTiled, s.p.op, s.p.attrs, ins, nil, out, nil)
				kern := simdKernelFor(s.p.op)
				withSIMD(simd, func() {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := kern(ctx); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// BenchmarkDepthwiseFloat races the Go and AVX2 depthwise kernels on the
// model's three depthwise shapes.
func BenchmarkDepthwiseFloat(b *testing.B) {
	benchModelLayers(b, func(op graph.OpType) bool { return op == graph.OpDepthwiseConv2D })
}
