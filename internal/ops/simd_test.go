package ops

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mlexray/internal/graph"
	"mlexray/internal/tensor"
)

// needAVX2 skips the assembly half of a differential test on a host whose
// probe found no AVX2: there the Go kernels are the only path and there is
// nothing to compare them with.
func needAVX2(tb testing.TB) {
	tb.Helper()
	if !useAVX2 {
		tb.Skip("the CPUID/XGETBV probe found no usable AVX2: the Go kernels are the only float path on this host")
	}
}

// withSIMD runs f with the assembly tiles switched on or off.
func withSIMD(on bool, f func()) {
	prev := useAVX2
	useAVX2 = on
	defer func() { useAVX2 = prev }()
	f()
}

// simdSpecials are the operand values a vector kernel is most likely to treat
// differently from a scalar one: signed zeros, infinities, NaN, denormals,
// and the clamp bounds themselves.
var simdSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	6, -6, 1, -1, math.MaxFloat32, -math.MaxFloat32,
}

// fillSIMDOperand fills t in one of three styles: uniform noise; small
// integers (so sums land exactly on 0 and 6, the clamp bounds, and on -0);
// noise salted with simdSpecials.
func fillSIMDOperand(rng *rand.Rand, t *tensor.Tensor, style int) {
	for i := range t.F {
		switch {
		case style == 1:
			t.F[i] = float32(rng.Intn(7) - 3)
			if t.F[i] == 0 && rng.Intn(2) == 0 {
				t.F[i] = float32(math.Copysign(0, -1))
			}
		case style == 2 && rng.Intn(12) == 0:
			t.F[i] = simdSpecials[rng.Intn(len(simdSpecials))]
		default:
			t.F[i] = float32(rng.Float64()*2 - 1)
		}
	}
}

// sameF32Bits reports the first index where a and b differ as bit patterns,
// any NaN equal to any NaN; -1 when they agree everywhere.
func sameF32Bits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i, x := range a {
		y := b[i]
		if math.Float32bits(x) != math.Float32bits(y) && !(x != x && y != y) {
			return i
		}
	}
	return -1
}

// simdKernelFor returns the optimized float kernel of a problem's op.
func simdKernelFor(op graph.OpType) Kernel {
	switch op {
	case graph.OpDense:
		return denseFloatOpt
	case graph.OpDepthwiseConv2D:
		return depthwiseFloatOpt
	}
	return convFloatOpt
}

// runSIMDProblem runs the problem's tiled kernel over ins with the assembly
// tiles on and off, each on a fresh Ctx and a NaN-poisoned output, and
// returns both outputs.
func runSIMDProblem(tb testing.TB, p diffProblem, ins []*tensor.Tensor) (asm, pure *tensor.Tensor) {
	tb.Helper()
	outs := [2]*tensor.Tensor{}
	for i, on := range []bool{true, false} {
		out := tensor.New(tensor.F32, p.shape...)
		for j := range out.F {
			out.F[j] = float32(math.NaN())
		}
		ctx := ctxForBackend(BackendTiled, p.op, p.attrs, ins, nil, out, nil)
		var err error
		withSIMD(on, func() { err = simdKernelFor(p.op)(ctx) })
		if err != nil {
			tb.Fatalf("%v (assembly %v): %v", p, on, err)
		}
		outs[i] = out
	}
	return outs[0], outs[1]
}

// randSIMDProblem draws one problem of the given family: "gemm" (Dense and
// pointwise/im2col Conv2D, m 1-200, oc 1-40, k 1-97), "depthwise" (3x3/5x5,
// stride and dilation 1/2, padded and not, odd widths, batch 1-2) or "stem"
// (the direct kernel: narrow inputs, clipped windows on every border).
func randSIMDProblem(rng *rand.Rand, family string) diffProblem {
	for {
		p := diffProblem{batch: 1, oc: 1 + rng.Intn(40)}
		a := &p.attrs
		a.Activation = graph.Activation(rng.Intn(3))
		a.StrideH, a.StrideW, a.DilationH, a.DilationW = 1, 1, 1, 1
		switch family {
		case "gemm":
			switch rng.Intn(3) {
			case 0:
				p.op = graph.OpDense
				p.batch, p.ic = 1+rng.Intn(200), 1+rng.Intn(97)
			case 1: // pointwise: the activation matrix is the left operand
				p.op = graph.OpConv2D
				p.ih, p.iw, p.ic, p.kh, p.kw = 1+rng.Intn(14), 1+rng.Intn(14), 1+rng.Intn(97), 1, 1
				p.batch = 1 + rng.Intn(2)
			default: // im2col: too wide for the direct kernel, or dilated in x
				p.op = graph.OpConv2D
				p.ih, p.iw, p.ic = 2+rng.Intn(9), 2+rng.Intn(9), 1+rng.Intn(10)
				p.kh, p.kw = 1+rng.Intn(3), 2+rng.Intn(2)
				if p.ic <= maxConvDirectIC {
					a.DilationW = 2
				}
				a.StrideH, a.StrideW = 1+rng.Intn(2), 1+rng.Intn(2)
				a.PadT, a.PadB, a.PadL, a.PadR = rng.Intn(2), rng.Intn(2), rng.Intn(3), rng.Intn(3)
			}
		case "depthwise":
			p.op = graph.OpDepthwiseConv2D
			p.batch = 1 + rng.Intn(2)
			p.ic = p.oc
			a.DepthMultiplier = 1
			p.kh = 3 + 2*rng.Intn(2)
			p.kw = p.kh
			p.ih, p.iw = 3+rng.Intn(13), 3+rng.Intn(13)
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
		case "stem":
			p.op = graph.OpConv2D
			p.batch = 1 + rng.Intn(2)
			p.ic = 1 + rng.Intn(maxConvDirectIC)
			p.kh, p.kw = 1+rng.Intn(5), 1+rng.Intn(5)
			if p.kh == 1 && p.kw == 1 {
				p.kw = 3
			}
			p.ih, p.iw = 2+rng.Intn(15), 2+rng.Intn(15)
			a.StrideH, a.StrideW = 1+rng.Intn(2), 1+rng.Intn(2)
			a.DilationH = 1 + rng.Intn(2)
			a.PadT, a.PadB = rng.Intn(p.kh), rng.Intn(p.kh)
			a.PadL, a.PadR = rng.Intn(p.kw), rng.Intn(p.kw)
		}
		if p, ok := p.finish(); ok {
			return p
		}
	}
}

// randSIMDOperands draws input, weights and (two cases in three) bias, all
// in one random fill style.
func randSIMDOperands(rng *rand.Rand, p diffProblem) []*tensor.Tensor {
	return simdOperands(rng, p, rng.Intn(3), rng.Intn(3) != 0)
}

// simdOperands draws a problem's operands in the given fill style.
func simdOperands(rng *rand.Rand, p diffProblem, style int, withBias bool) []*tensor.Tensor {
	in := tensor.New(tensor.F32, p.inShape...)
	w := tensor.New(tensor.F32, p.wShape...)
	fillSIMDOperand(rng, in, style)
	fillSIMDOperand(rng, w, style)
	ins := []*tensor.Tensor{in, w}
	if withBias {
		bias := tensor.New(tensor.F32, p.oc)
		fillSIMDOperand(rng, bias, style)
		ins = append(ins, bias)
	}
	return ins
}

// TestFloatSIMDMatchesGo is the bit-identity pin of the assembly tiles: on
// 2,000 seeded problems per kernel family the tiled float kernels produce the
// same bits with the AVX2 tiles as with the Go kernels — row and column
// tails, nil bias, every fused activation, clipped windows, and operands
// salted with signed zeros, infinities, NaN, denormals and sums that land
// exactly on the clamp bounds.
func TestFloatSIMDMatchesGo(t *testing.T) {
	needAVX2(t)
	cases := 2000
	if testing.Short() {
		cases = 400
	}
	for _, family := range []string{"gemm", "depthwise", "stem"} {
		family := family
		t.Run(family, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(family)) * 7919))
			for i := 0; i < cases; i++ {
				p := randSIMDProblem(rng, family)
				ins := randSIMDOperands(rng, p)
				asm, pure := runSIMDProblem(t, p, ins)
				if at := sameF32Bits(asm.F, pure.F); at >= 0 {
					t.Fatalf("case %d, %v bias=%v: output %d is %v (%#08x) in assembly, %v (%#08x) in Go", i, p, len(ins) == 3,
						at, asm.F[at], math.Float32bits(asm.F[at]), pure.F[at], math.Float32bits(pure.F[at]))
				}
			}
		})
	}
}

// TestFloatSIMDModelShapes holds the same identity on the exact layer shapes
// of mobilenetv2-mini (the shapes the benchmarks race), where every pixel
// count and channel count is the one the deployed frame runs.
func TestFloatSIMDModelShapes(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(24))
	for _, s := range modelLayerShapes() {
		ins := randSIMDOperands(rng, s.p)
		asm, pure := runSIMDProblem(t, s.p, ins)
		if at := sameF32Bits(asm.F, pure.F); at >= 0 {
			t.Errorf("%s: output %d differs: assembly %v, Go %v", s.name, at, asm.F[at], pure.F[at])
		}
	}
}

// FuzzFloatSIMDDifferential drives the same comparison from raw bytes: the
// first bytes pick family, shape and activation, the rest are the operands'
// bit patterns (so every NaN payload, denormal and infinity is reachable).
func FuzzFloatSIMDDifferential(f *testing.F) {
	needAVX2(f)
	f.Add(uint64(1), uint8(0), []byte{0, 0, 0x80, 0x3f, 0, 0, 0xc0, 0x7f})
	f.Add(uint64(2), uint8(1), []byte{0, 0, 0, 0x80, 0, 0, 0x80, 0x7f, 1, 0, 0, 0})
	f.Add(uint64(3), uint8(2), []byte{0, 0, 0xc0, 0x40, 0, 0, 0xc0, 0xc0, 0xff, 0xff, 0x7f, 0x7f})
	f.Fuzz(func(t *testing.T, shape uint64, act uint8, raw []byte) {
		rng := rand.New(rand.NewSource(int64(shape >> 2)))
		p := randSIMDProblem(rng, []string{"gemm", "depthwise", "stem", "gemm"}[shape&3])
		p.attrs.Activation = graph.Activation(act % 3)
		ins := randSIMDOperands(rng, p)
		// Overlay the fuzzer's bytes, cycled, on every operand.
		if len(raw) >= 4 {
			words := len(raw) / 4
			at := 0
			for _, in := range ins {
				for i := range in.F {
					in.F[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[at%words*4:]))
					at++
				}
			}
		}
		asm, pure := runSIMDProblem(t, p, ins)
		if at := sameF32Bits(asm.F, pure.F); at >= 0 {
			t.Fatalf("%v: output %d is %#08x in assembly, %#08x in Go", p, at, math.Float32bits(asm.F[at]), math.Float32bits(pure.F[at]))
		}
	})
}

// TestSIMDWrappersRefuseShortOperands: every operand of every assembly
// wrapper, float and int8, one element short, is the documented `ops: <Op> SIMD tile` error —
// not a panic, and not a read or write past the slice.
func TestSIMDWrappersRefuseShortOperands(t *testing.T) {
	needAVX2(t)
	const m, n8, k = 5, 16, 3
	lo, hi := actClampF32(graph.ActReLU6)
	f := func(n int) []float32 { return make([]float32, n) }
	full := map[string]int{"a": m * k, "panel": k * n8, "bias": n8, "out": (m-1)*n8 + n8}
	call := map[string]func(sz map[string]int) error{
		"gemm": func(sz map[string]int) error {
			return gemmLanesF32(graph.OpConv2D, f(sz["a"]), f(sz["panel"]), f(sz["bias"]), f(sz["out"]), m, n8, k, n8, lo, hi)
		},
	}
	// Depthwise and direct conv: 3 pixels, d = 16, two taps / one 6-long run.
	const npix, d = 3, 16
	taps, wofs := []int{0, 16}, []int{0, 16}
	fullDW := map[string]int{"a": 16 + (npix-1)*d + n8, "panel": 16 + n8, "bias": n8, "out": (npix-1)*n8 + n8}
	call["depthwise"] = func(sz map[string]int) error {
		return dwLanesF32(graph.OpDepthwiseConv2D, f(sz["a"]), f(sz["panel"]), f(sz["bias"]), f(sz["out"]), taps, wofs, npix, d, n8, n8, lo, hi)
	}
	runIn, runW, runLen := []int{4}, []int{2}, []int{6}
	fullConv := map[string]int{"a": 4 + (npix-1)*d + 6, "panel": (2+6-1)*n8 + n8, "bias": n8, "out": (npix-1)*n8 + n8}
	call["conv"] = func(sz map[string]int) error {
		return convLanesF32(graph.OpConv2D, f(sz["a"]), f(sz["panel"]), f(sz["bias"]), f(sz["out"]), runIn, runW, runLen, npix, d, n8, n8, n8, lo, hi)
	}
	// The int8 tiles: a k = 3 GEMM (two pairs, the second padded; row
	// stride 3) and the same depthwise geometry, each with its requantizer.
	i16 := func(n int) []int16 { return make([]int16, n) }
	i32 := func(n int) []int32 { return make([]int32, n) }
	u8 := func(n int) []uint8 { return make([]uint8, n) }
	rq := n8 / 8 * rqBlock
	fullQ8 := map[string]int{"a": (m-1)*k + 4, "panel": 2 * 2 * n8, "bias": n8, "rq": rq, "out": (m-1)*n8 + n8}
	call["gemm-int8"] = func(sz map[string]int) error {
		return gemmLanesQ8(graph.OpConv2D, i16(sz["a"]), i16(sz["panel"]), i32(sz["bias"]), i32(sz["rq"]), u8(sz["out"]), m, n8, 2, k, n8, 128, 0, 255)
	}
	fullDWQ8 := map[string]int{"a": 16 + (npix-1)*d + n8, "panel": 16 + n8, "bias": n8, "rq": rq, "out": (npix-1)*n8 + n8}
	call["depthwise-int8"] = func(sz map[string]int) error {
		return dwLanesQ8(graph.OpDepthwiseConv2D, u8(sz["a"]), i32(sz["panel"]), i32(sz["bias"]), i32(sz["rq"]), u8(sz["out"]), taps, wofs, npix, d, n8, n8, 128, 128, 0, 255)
	}
	for name, sizes := range map[string]map[string]int{"gemm": full, "depthwise": fullDW, "conv": fullConv, "gemm-int8": fullQ8, "depthwise-int8": fullDWQ8} {
		if err := call[name](sizes); err != nil {
			t.Errorf("%s with exact-length operands: %v", name, err)
		}
		for operand := range sizes {
			short := map[string]int{}
			for k, v := range sizes {
				short[k] = v
			}
			short[operand]--
			err := call[name](short)
			if err == nil || !strings.HasPrefix(err.Error(), "ops: ") || !strings.Contains(err.Error(), "SIMD tile") {
				t.Errorf("%s with %s one element short: error %v, want the ops: <Op> SIMD tile refusal", name, operand, err)
			}
		}
	}
	// Tables and shapes the assembly could not survive.
	for name, err := range map[string]error{
		"gemm k=0":             gemmLanesF32(graph.OpDense, f(4), f(8), nil, f(8), 1, 8, 0, 8, lo, hi),
		"gemm n8=12":           gemmLanesF32(graph.OpDense, f(4), f(48), nil, f(12), 1, 12, 4, 12, lo, hi),
		"depthwise negative":   dwLanesF32(graph.OpDepthwiseConv2D, f(64), f(64), nil, f(8), []int{-1}, []int{0}, 1, 8, 8, 8, lo, hi),
		"depthwise wofs short": dwLanesF32(graph.OpDepthwiseConv2D, f(64), f(64), nil, f(8), []int{0, 8}, []int{0}, 1, 8, 8, 8, lo, hi),
		"conv negative run":    convLanesF32(graph.OpConv2D, f(64), f(64), nil, f(8), []int{-2}, []int{0}, []int{3}, 1, 3, 8, 8, 8, lo, hi),
		"conv runLen short":    convLanesF32(graph.OpConv2D, f(64), f(64), nil, f(8), []int{0}, []int{0}, nil, 1, 3, 8, 8, 8, lo, hi),
		"int8 gemm kp=0":       gemmLanesQ8(graph.OpDense, i16(4), i16(16), nil, i32(rqBlock), u8(8), 1, 8, 0, 2, 8, 0, 0, 255),
		"int8 gemm n8=12":      gemmLanesQ8(graph.OpDense, i16(4), i16(48), nil, i32(2*rqBlock), u8(12), 1, 12, 2, 4, 12, 0, 0, 255),
		"int8 dw negative":     dwLanesQ8(graph.OpDepthwiseConv2D, u8(64), i32(64), nil, i32(rqBlock), u8(8), []int{-1}, []int{0}, 1, 8, 8, 8, 0, 0, 0, 255),
		"int8 dw wofs short":   dwLanesQ8(graph.OpDepthwiseConv2D, u8(64), i32(64), nil, i32(rqBlock), u8(8), []int{0, 8}, []int{0}, 1, 8, 8, 8, 0, 0, 0, 255),
	} {
		if err == nil || !strings.HasPrefix(err.Error(), "ops: ") {
			t.Errorf("%s: error %v, want an ops: refusal", name, err)
		}
	}
}

// modelLayerShape is one conv/depthwise/dense layer shape of mobilenetv2-mini
// at batch 1, as the tiled backend sees it.
type modelLayerShape struct {
	name string
	p    diffProblem
}

// modelLayerShapes lists the model's seven distinct conv shapes, its three
// depthwise shapes and fc — the shapes the per-layer races are run on.
func modelLayerShapes() []modelLayerShape {
	// SAME padding, as the model builder computes it; same=false is the
	// VALID depthwise behind block2's explicit Pad node.
	shape := func(name string, op graph.OpType, hw, ic, oc, k, stride int, same bool, act graph.Activation) modelLayerShape {
		p := diffProblem{op: op, batch: 1, ih: hw, iw: hw, ic: ic, oc: oc, kh: k, kw: k}
		p.attrs = graph.Attrs{StrideH: stride, StrideW: stride, Activation: act}
		if same {
			p.attrs.PadT, p.attrs.PadB = graph.SamePadding(hw, k, stride, 1)
			p.attrs.PadL, p.attrs.PadR = p.attrs.PadT, p.attrs.PadB
		}
		if op == graph.OpDepthwiseConv2D {
			p.attrs.DepthMultiplier = 1
		}
		return modelLayerShape{name, mustFinish(p)}
	}
	conv := func(name string, hw, ic, oc, k, stride int, act graph.Activation) modelLayerShape {
		return shape(name, graph.OpConv2D, hw, ic, oc, k, stride, true, act)
	}
	dw := func(name string, hw, c, stride int, same bool) modelLayerShape {
		return shape(name, graph.OpDepthwiseConv2D, hw, c, c, 3, stride, same, graph.ActReLU6)
	}
	fc := diffProblem{op: graph.OpDense, batch: 1, ic: 32, oc: 10}
	return []modelLayerShape{
		conv("conv1_28x28x3-3x3s2-8", 28, 3, 8, 3, 2, graph.ActReLU6),
		conv("block1-expand_196x8-16", 14, 8, 16, 1, 1, graph.ActReLU6),
		conv("block1-project_196x16-8", 14, 16, 8, 1, 1, graph.ActNone),
		conv("block2-expand_196x8-24", 14, 8, 24, 1, 1, graph.ActReLU6),
		conv("block2-project_49x24-16", 7, 24, 16, 1, 1, graph.ActNone),
		conv("block3-expand_49x16-32", 7, 16, 32, 1, 1, graph.ActReLU6),
		conv("block3-project_49x32-16", 7, 32, 16, 1, 1, graph.ActNone),
		dw("block1-dw_14x14x16-s1", 14, 16, 1, true),
		dw("block2-dw_15x15x24-s2", 15, 24, 2, false),
		dw("block3-dw_7x7x32-s1", 7, 32, 1, true),
		{"fc_32-10", mustFinish(fc)},
	}
}

func mustFinish(p diffProblem) diffProblem {
	q, ok := p.finish()
	if !ok {
		panic(fmt.Sprintf("bad layer shape %v", p))
	}
	return q
}

// TestDepthwiseTiledDegenerateWidths pins two geometries dwInteriorX used to
// get wrong, on the Go kernels and on the assembly tiles alike: an input
// narrower than the dilated kernel (Go's division rounded the negative
// interior bound up to one pixel, which then read its clipped taps from the
// next input row) and a left padding wider than the output row (the left
// border loop ran past it). Both must equal the reference loop nest.
func TestDepthwiseTiledDegenerateWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, p := range []diffProblem{
		{ih: 12, iw: 4, kh: 5, kw: 5, attrs: graph.Attrs{StrideH: 2, StrideW: 2, DilationH: 2, DilationW: 1}},
		{ih: 6, iw: 4, kh: 5, kw: 5, attrs: graph.Attrs{StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 2, PadT: 2, PadB: 2, PadL: 8}},
	} {
		p.op, p.batch, p.ic, p.oc = graph.OpDepthwiseConv2D, 2, 11, 11
		p.attrs.DepthMultiplier, p.attrs.Activation = 1, graph.ActReLU6
		p = mustFinish(p)
		ins := simdOperands(rng, p, 0, true)
		ref := tensor.New(tensor.F32, p.shape...)
		if err := depthwiseFloatRef(ctxFor(p.op, p.attrs, ins, nil, ref, nil)); err != nil {
			t.Fatal(err)
		}
		for _, simd := range []bool{false, useAVX2} {
			out := tensor.New(tensor.F32, p.shape...)
			var err error
			withSIMD(simd, func() { err = depthwiseFloatOpt(ctxForBackend(BackendTiled, p.op, p.attrs, ins, nil, out, nil)) })
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			if at := sameF32Bits(out.F, ref.F); at >= 0 {
				t.Errorf("%v (assembly %v): output %d is %v, the reference loop nest says %v", p, simd, at, out.F[at], ref.F[at])
			}
		}
	}
}

// legacySSERe matches an X or Y register operand.
var legacySSERe = regexp.MustCompile(`\b[XY](1[0-5]|[0-9])\b`)

// legacySSELines returns the instructions of Go assembly source that name an
// X or Y register under a mnemonic without the VEX prefix (MOVQ X5, (DI),
// MOVD AX, X12, PXOR X0, X0): legacy-SSE encodings, each of which costs an
// SSE/AVX state transition once the upper YMM halves are dirty.
func legacySSELines(src string) []string {
	var bad []string
	for _, line := range strings.Split(src, "\n") {
		code, _, _ := strings.Cut(line, "//")
		code = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(code), `\`))
		fields := strings.Fields(code)
		if len(fields) < 2 || strings.HasPrefix(fields[0], "#") || strings.HasSuffix(fields[0], ":") || strings.Contains(fields[0], "(") {
			continue // directives, labels and macro calls (macro bodies are scanned where defined)
		}
		if !strings.HasPrefix(fields[0], "V") && legacySSERe.MatchString(strings.Join(fields[1:], " ")) {
			bad = append(bad, strings.TrimSpace(line))
		}
	}
	return bad
}

// TestAssemblyHasNoLegacySSE scans the package's amd64 assembly for a
// non-VEX instruction on an X or Y register. Such an instruction computes the
// same bits, so no differential can see it, but between AVX2 code it forces
// an SSE/AVX state transition: one MOVQ X, mem in the int8 depthwise loop
// made that kernel 19x slower. VMOVQ/VMOVD are the VEX forms.
func TestAssemblyHasNoLegacySSE(t *testing.T) {
	if got := legacySSELines("\tMOVQ X5, (DI)\n\tMOVD AX, X12 \\\n\tVMOVQ X4, (CX)\n\tMOVQ AX, (DI)\nlbl:\n// MOVQ X1, AX\n"); len(got) != 2 {
		t.Fatalf("the scanner flags %q, want the MOVQ and MOVD on X registers", got)
	}
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no amd64 assembly found (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range legacySSELines(string(src)) {
			t.Errorf("%s: legacy-SSE instruction %q: use its VEX form", f, line)
		}
	}
}
