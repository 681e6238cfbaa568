package ops

import (
	"math"
	"math/rand"
	"testing"

	"mlexray/internal/graph"
	"mlexray/internal/quant"
	"mlexray/internal/tensor"
)

// The int8 lanes' pins: the requantizing store against quant.Multiplier, and
// the AVX2 int8 tiles against the Go kernels and the reference loops. Every
// differential runs the tiled kernel with the probe forced both ways.

// requantMultiplierClasses are the Q31 significands TestRequantLanesMatchMultiplier
// sweeps: both ends of NewMultiplier's range and, per lane, a random positive
// M (the lanes accept any M > 0).
func requantMultiplierClasses(rng *rand.Rand) [][8]int32 {
	var lo, hi, random [8]int32
	for i := range lo {
		lo[i], hi[i], random[i] = 1<<30, math.MaxInt32, 1+rng.Int31n(math.MaxInt32)
	}
	return [][8]int32{lo, hi, random}
}

// requantAccs lists the accumulators one shift is checked on: the int32
// extremes, 0, +-1, +-2^shift+-1, then n random values — half uniform over
// int32, half within about 2^(shift+9) of zero, where the requantized value
// lands inside the output byte's range and a rounding step shows.
func requantAccs(rng *rand.Rand, shift, n int) []int32 {
	accs := []int32{math.MinInt32, math.MaxInt32, 0, 1, -1}
	for _, sign := range []int64{1, -1} {
		for _, d := range []int64{-1, 0, 1} {
			if v := sign*(int64(1)<<shift) + d; v >= math.MinInt32 && v <= math.MaxInt32 {
				accs = append(accs, int32(v))
			}
		}
	}
	span := int64(1) << min(shift+9, 31)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			accs = append(accs, int32(rng.Uint32()))
		} else {
			accs = append(accs, int32(max(math.MinInt32, min(math.MaxInt32, rng.Int63n(2*span+1)-span))))
		}
	}
	return accs
}

// TestRequantLanesMatchMultiplier holds both forms of the planned
// requantizer to quant.Multiplier, for every shift 0-31, M at 2^30, 2^31-1
// and random, the fixed and the historical store: the Go lane's int32 equals
// Apply (ApplyLogicalShiftBug) exactly, and the AVX2 store — driven through
// the GEMM tile with a zero left operand, so each lane's accumulator is its
// bias — writes clampU8(outZ + that). Odd calls set the output zero point so
// lane 0's expected byte is 128, which no clamp can hide.
func TestRequantLanesMatchMultiplier(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	a, panel, out := make([]int16, 2), make([]int16, 16), make([]uint8, 8)
	for _, logical := range []bool{false, true} {
		for shift := 0; shift <= 31; shift++ {
			for _, ms := range requantMultiplierClasses(rng) {
				muls := make([]quant.Multiplier, 8)
				for i := range muls {
					muls[i] = quant.Multiplier{M: ms[i], Shift: shift}
				}
				oracle := func(i int, acc int32) int32 {
					if logical {
						return muls[i].ApplyLogicalShiftBug(acc)
					}
					return muls[i].Apply(acc)
				}
				rq, ok := newRequantizer(muls, logical, 0, 0, 255)
				if !ok {
					t.Fatalf("M=%d shift=%d: refused a multiplier in the lane domain", ms[0], shift)
				}
				accs := requantAccs(rng, shift, n)
				for i, acc := range accs {
					if got, want := rq.chans[i%8].apply(acc), oracle(i%8, acc); got != want {
						t.Fatalf("logical=%v M=%d shift=%d acc=%d: Go lane %d, Multiplier %d", logical, ms[i%8], shift, acc, got, want)
					}
				}
				if !useAVX2 {
					continue
				}
				for call := 0; call*8 < len(accs); call++ {
					var bias [8]int32
					for i := range bias {
						bias[i] = accs[(call*8+i)%len(accs)]
					}
					outZ := []int32{0, 128, 255}[rng.Intn(3)]
					if call%2 == 1 {
						outZ = 128 - oracle(0, bias[0])
					}
					if err := gemmLanesQ8(graph.OpDense, a, panel, bias[:], rq.lanes, out, 1, 8, 1, 2, 8, outZ, 0, 255); err != nil {
						t.Fatal(err)
					}
					for i, acc := range bias {
						if want := clampU8(outZ+oracle(i, acc), 0, 255); out[i] != want {
							t.Fatalf("logical=%v M=%d shift=%d acc=%d outZ=%d: AVX2 store wrote %d, Multiplier says %d",
								logical, ms[i], shift, acc, outZ, out[i], want)
						}
					}
				}
			}
		}
	}
}

// TestRequantNeverSaturates: the doubling high multiply saturates only when
// both operands are MinInt32, and a Q31 significand from NewMultiplier is in
// [2^30, 2^31) — positive, so the branch is unreachable and the lanes (which
// have none) lose nothing. Checked over NewMultiplier's whole range of reals,
// the renormalising round-up included, and on every extreme accumulator with
// M at both ends of the range.
func TestRequantNeverSaturates(t *testing.T) {
	reals := []float64{1e-9, 0.25, 0.5, 0.75, math.Nextafter(1, 0), 1 - 1.0/(1<<33), 0.999999999}
	for e := -40; e <= 0; e++ {
		reals = append(reals, math.Ldexp(1, e), math.Ldexp(1.5, e), math.Ldexp(math.Nextafter(2, 0), e))
	}
	for _, r := range reals {
		m, err := quant.NewMultiplier(r)
		if err != nil {
			t.Fatal(err)
		}
		if m.M < 1<<30 || m.M == math.MinInt32 {
			t.Errorf("NewMultiplier(%v).M = %d, outside [2^30, 2^31)", r, m.M)
		}
	}
	for _, M := range []int32{1 << 30, 1<<30 + 1, math.MaxInt32 - 1, math.MaxInt32} {
		q := rqLane{m: int64(M)}
		for _, acc := range []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32} {
			if got, want := q.apply(acc), (quant.Multiplier{M: M}).Apply(acc); got != want {
				t.Errorf("M=%d acc=%d: lane %d, Multiplier %d", M, acc, got, want)
			}
			// The product's sign is acc's, as the nudge selection assumes.
			if p := int64(acc) * int64(M); (p < 0) != (acc < 0) {
				t.Errorf("M=%d acc=%d: product %d has the other sign", M, acc, p)
			}
		}
	}
}

// TestRequantLanesRefuseOutOfRangeShift: a node with one channel outside the
// lane domain — a real multiplier >= 1 (negative shift) or below 2^-32
// (shift > 31) — plans no requantizer and runs the reference loops with
// Multiplier's own methods, on every kernel and with the probe either way:
// the same bytes as the reference backend, not an error.
func TestRequantLanesRefuseOutOfRangeShift(t *testing.T) {
	for _, m := range []quant.Multiplier{{M: 1 << 30, Shift: -1}, {M: 1 << 30, Shift: 32}, {M: 0, Shift: 4}, {M: math.MinInt32, Shift: 4}} {
		if _, ok := newRequantizer([]quant.Multiplier{{M: 1 << 30, Shift: 3}, m}, false, 0, 0, 255); ok {
			t.Errorf("newRequantizer planned lanes for %+v", m)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for _, scale := range []float64{40, 1e-13} { // one channel's multiplier >= 1, or < 2^-32
		for _, p := range []diffProblem{
			{op: graph.OpConv2D, batch: 2, ih: 5, iw: 5, ic: 3, oc: 12, kh: 3, kw: 3, attrs: graph.Attrs{StrideH: 1, StrideW: 1, PadT: 1, PadB: 1, PadL: 1, PadR: 1}},
			{op: graph.OpDense, batch: 3, ic: 9, oc: 11},
			{op: graph.OpDepthwiseConv2D, batch: 2, ih: 6, iw: 6, ic: 10, oc: 10, kh: 3, kw: 3, attrs: graph.Attrs{StrideH: 1, StrideW: 1, PadT: 1, PadB: 1, PadL: 1, PadR: 1, DepthMultiplier: 1}},
		} {
			p := mustFinish(p)
			qins, qps, outP := randQuantOperands(rng, p, 128, 128, true)
			qps[1].Scales[p.oc-1] = scale
			for _, k := range int8Kernels(p.op) {
				want := runInt8(t, p, k.ref, BackendReference, qins, qps, outP, false)
				for _, simd := range []bool{false, true} {
					out := tensor.New(tensor.U8, p.shape...)
					ctx := ctxForBackend(BackendTiled, p.op, p.attrs, qins, qps, out, outP)
					var err error
					withSIMD(simd && useAVX2, func() { err = k.opt(ctx) })
					if err != nil {
						t.Fatalf("%s %v scale %g: %v", k.name, p, scale, err)
					}
					if _, ok := ctx.cache.([]quant.Multiplier); !ok {
						t.Errorf("%s %v scale %g: the Ctx caches %T, want the multipliers of the reference fallback", k.name, p, scale, ctx.cache)
					}
					if i := firstDiffU8(want, out); i >= 0 {
						t.Errorf("%s %v scale %g (assembly %v): output %d is %d, the reference says %d", k.name, p, scale, simd, i, out.U[i], want.U[i])
					}
				}
			}
		}
	}
}

// int8Kernel is one optimized int8 kernel and the reference loop it must
// equal byte for byte.
type int8Kernel struct {
	name     string
	opt, ref Kernel
}

// int8Kernels lists the tiled int8 kernels of an op: depthwise twice, fixed
// and with the historical logical-shift store.
func int8Kernels(op graph.OpType) []int8Kernel {
	switch op {
	case graph.OpDense:
		return []int8Kernel{{"dense", denseQuantOpt, denseQuantRef}}
	case graph.OpDepthwiseConv2D:
		return []int8Kernel{{"depthwise", depthwiseQuantOpt, depthwiseQuantRef}, {"historical", depthwiseQuantOptBuggy, historicalLoopNest}}
	}
	return []int8Kernel{{"conv", convQuantOpt, convQuantRef}}
}

// runInt8 runs kern on a fresh Ctx and output with the probe as given.
func runInt8(tb testing.TB, p diffProblem, kern Kernel, b Backend, ins []*tensor.Tensor, qps []*quant.Params, outP *quant.Params, simd bool) *tensor.Tensor {
	tb.Helper()
	out := tensor.New(tensor.U8, p.shape...)
	for i := range out.U {
		out.U[i] = 0xA5
	}
	var err error
	withSIMD(simd, func() { err = kern(ctxForBackend(b, p.op, p.attrs, ins, qps, out, outP)) })
	if err != nil {
		tb.Fatalf("%v (assembly %v): %v", p, simd, err)
	}
	return out
}

// randInt8SIMDProblem draws one problem of a family with oc output channels:
// "pointwise" and "im2col" Conv2D (odd and even k), "dense" (m 1-9), or
// "depthwise" (3x3/5x5, stride and dilation 1/2, padded and not). Batch is 2
// except for dense, whose batch is its m.
func randInt8SIMDProblem(rng *rand.Rand, family string, oc int) diffProblem {
	for {
		p := diffProblem{batch: 2, oc: oc}
		a := &p.attrs
		a.Activation = graph.Activation(rng.Intn(3))
		a.StrideH, a.StrideW, a.DilationH, a.DilationW = 1, 1, 1, 1
		switch family {
		case "pointwise":
			p.op = graph.OpConv2D
			p.ih, p.iw, p.ic, p.kh, p.kw = 1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(40), 1, 1
		case "im2col":
			p.op = graph.OpConv2D
			p.ih, p.iw, p.ic = 2+rng.Intn(7), 2+rng.Intn(7), 1+rng.Intn(6)
			p.kh, p.kw = 1+rng.Intn(3), 1+rng.Intn(3)
			a.StrideH, a.StrideW = 1+rng.Intn(2), 1+rng.Intn(2)
			a.PadT, a.PadB, a.PadL, a.PadR = rng.Intn(2), rng.Intn(2), rng.Intn(2), rng.Intn(2)
		case "dense":
			p.op = graph.OpDense
			p.batch, p.ic = 1+rng.Intn(9), 1+rng.Intn(70)
		case "depthwise":
			p.op = graph.OpDepthwiseConv2D
			p.ic, a.DepthMultiplier = oc, 1
			p.kh = 3 + 2*rng.Intn(2)
			p.kw = p.kh
			p.ih, p.iw = 3+rng.Intn(10), 3+rng.Intn(10)
			a.StrideH, a.StrideW = 1+rng.Intn(2), 1+rng.Intn(2)
			a.DilationH, a.DilationW = 1+rng.Intn(2), 1+rng.Intn(2)
			if rng.Intn(2) == 0 {
				a.PadT, a.PadB = graph.SamePadding(p.ih, p.kh, a.StrideH, a.DilationH)
				a.PadL, a.PadR = graph.SamePadding(p.iw, p.kw, a.StrideW, a.DilationW)
			}
		}
		if p, ok := p.finish(); ok {
			return p
		}
	}
}

// int8SIMDFamilies are the problem families of the int8 differentials.
var int8SIMDFamilies = []string{"pointwise", "im2col", "dense", "depthwise"}

// checkInt8SIMD runs every int8 kernel of p with the probe on and off and
// holds both to the reference loop.
func checkInt8SIMD(tb testing.TB, p diffProblem, ins []*tensor.Tensor, qps []*quant.Params, outP *quant.Params) {
	tb.Helper()
	for _, k := range int8Kernels(p.op) {
		want := runInt8(tb, p, k.ref, BackendReference, ins, qps, outP, false)
		pure := runInt8(tb, p, k.opt, BackendTiled, ins, qps, outP, false)
		asm := runInt8(tb, p, k.opt, BackendTiled, ins, qps, outP, true)
		if i := firstDiffU8(asm, pure); i >= 0 {
			tb.Fatalf("%s %v inZ=%d outZ=%d: output %d is %d on the AVX2 tile, %d in Go", k.name, p,
				qps[0].ZeroPoint(0), outP.ZeroPoint(0), i, asm.U[i], pure.U[i])
		}
		if i := firstDiffU8(pure, want); i >= 0 {
			tb.Fatalf("%s %v inZ=%d outZ=%d: output %d is %d in Go, %d in the reference loop", k.name, p,
				qps[0].ZeroPoint(0), outP.ZeroPoint(0), i, pure.U[i], want.U[i])
		}
	}
}

// TestInt8SIMDMatchesGo is the bit-identity pin of the int8 tiles: pointwise
// and im2col Conv2D with odd and even k, Dense, and depthwise with the fixed
// and the historical store, at every output-channel count 1-40 (the lane
// width, its multiples and both sides of them), batch 2, input and output
// zero points 0/128/255 and operands salted with their extremes — the AVX2
// tile equals the Go kernels and both equal the reference loops. The
// historical rows use a mid-range input zero point, so about half their
// accumulators are negative and the defect's select is exercised on every
// lane.
func TestInt8SIMDMatchesGo(t *testing.T) {
	needAVX2(t)
	zps := []int32{0, 128, 255}
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	rng := rand.New(rand.NewSource(8))
	for _, family := range int8SIMDFamilies {
		for round := 0; round < rounds; round++ {
			for oc := 1; oc <= 40; oc++ {
				p := randInt8SIMDProblem(rng, family, oc)
				i := oc + round
				ins, qps, outP := randQuantOperands(rng, p, zps[i%3], zps[(i/3)%3], true)
				checkInt8SIMD(t, p, ins, qps, outP)
			}
		}
	}
}

// TestInt8SIMDModelShapes holds the same identity on mobilenetv2-mini's layer
// shapes, fixed and historical.
func TestInt8SIMDModelShapes(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(20))
	for _, s := range modelLayerShapes() {
		ins, qps, outP := randQuantOperands(rng, s.p, 128, 128, false)
		checkInt8SIMD(t, s.p, ins, qps, outP)
	}
}

// FuzzInt8SIMDDifferential drives the int8 differential from raw bytes: the
// first arguments pick family, channel count and zero points, the bytes
// overwrite activations, weights and bias.
func FuzzInt8SIMDDifferential(f *testing.F) {
	needAVX2(f)
	f.Add(uint64(1), uint8(8), uint16(0x8080), []byte{0, 255, 128, 127, 1})
	f.Add(uint64(2), uint8(9), uint16(0x00ff), []byte{255, 0, 0x80, 0x7f, 0x81})
	f.Add(uint64(3), uint8(31), uint16(0xff00), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint64(7), uint8(24), uint16(0x7f01), []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, shape uint64, oc uint8, zps uint16, raw []byte) {
		rng := rand.New(rand.NewSource(int64(shape >> 2)))
		p := randInt8SIMDProblem(rng, int8SIMDFamilies[shape&3], 1+int(oc)%40)
		ins, qps, outP := randQuantOperands(rng, p, int32(zps&0xff), int32(zps>>8), rng.Intn(2) == 0)
		if len(raw) > 0 {
			at := 0
			for i := range ins[0].U {
				ins[0].U[i] = raw[at%len(raw)]
				at++
			}
			for i := range ins[1].I {
				ins[1].I[i] = int8(raw[at%len(raw)])
				at++
			}
			for i := range ins[2].X {
				// Bias bytes little-endian-ish into the full int32 range.
				b := raw[at%len(raw)]
				ins[2].X[i] = int32(b)<<uint(b%25) - int32(b)<<11
				at++
			}
		}
		checkInt8SIMD(t, p, ins, qps, outP)
	})
}
