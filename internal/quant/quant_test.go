package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mlexray/internal/tensor"
)

func TestAsymmetricParamsBasics(t *testing.T) {
	p := AsymmetricU8Params(-1, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Scale(0)-2.0/255.0) > 1e-12 {
		t.Errorf("scale = %v", p.Scale(0))
	}
	// Real zero must quantize exactly.
	z := p.QuantizeU8(0, 0)
	if back := p.DequantizeU8(z, 0); math.Abs(back) > 1e-9 {
		t.Errorf("zero reconstructs to %v", back)
	}
}

func TestAsymmetricParamsWidenToZero(t *testing.T) {
	// All-positive range must still include zero so padding is exact.
	p := AsymmetricU8Params(2, 6)
	if p.ZeroPoint(0) != 0 {
		t.Errorf("zero point = %d, want 0", p.ZeroPoint(0))
	}
	if math.Abs(p.DequantizeU8(p.QuantizeU8(0, 0), 0)) > 1e-9 {
		t.Error("zero not exactly representable")
	}
}

func TestDegenerateRange(t *testing.T) {
	p := AsymmetricU8Params(0, 0)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.QuantizeU8(0, 0) != 0 {
		t.Error("constant-zero tensor should quantize to zero point")
	}
}

// Property (paper Eqn 1–2): quantize→dequantize error is bounded by half a
// quantization step for in-range values.
func TestQuantRoundTripErrorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lo := -rng.Float64()*10 - 0.1
		hi := rng.Float64()*10 + 0.1
		p := AsymmetricU8Params(lo, hi)
		step := p.Scale(0)
		for i := 0; i < 100; i++ {
			v := lo + (hi-lo)*rng.Float64()
			back := p.DequantizeU8(p.QuantizeU8(v, 0), 0)
			if math.Abs(back-v) > step/2+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSymmetricParamsPinZeroPoint(t *testing.T) {
	p := SymmetricU8Params(-0.5, 4)
	if p.ZeroPoint(0) != 128 {
		t.Errorf("symmetric zero point = %d", p.ZeroPoint(0))
	}
	// Symmetric scale covers [-4, 4] even though data only reaches -0.5:
	// coarser than the asymmetric scale for the same data (§2).
	a := AsymmetricU8Params(-0.5, 4)
	if p.Scale(0) <= a.Scale(0) {
		t.Errorf("symmetric scale %v should be coarser than asymmetric %v", p.Scale(0), a.Scale(0))
	}
}

func TestI8Quantization(t *testing.T) {
	p := PerTensor(0.1, 0)
	if p.QuantizeI8(12.6, 0) != 126 {
		t.Errorf("QuantizeI8(12.6) = %d", p.QuantizeI8(12.6, 0))
	}
	if p.QuantizeI8(1e9, 0) != 127 || p.QuantizeI8(-1e9, 0) != -128 {
		t.Error("I8 saturation")
	}
	if got := p.DequantizeI8(-50, 0); math.Abs(got+5) > 1e-9 {
		t.Errorf("DequantizeI8 = %v", got)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (&Params{Scales: []float64{1}, ZeroPoints: []int32{0, 0}}).Validate(); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if err := (&Params{Scales: []float64{-1}, ZeroPoints: []int32{0}}).Validate(); err == nil {
		t.Error("accepted negative scale")
	}
	if err := (&Params{}).Validate(); err == nil {
		t.Error("accepted empty params")
	}
}

func TestPerChannelAccessors(t *testing.T) {
	p := PerChannel([]float64{0.1, 0.2}, []int32{0, 0}, 0)
	if !p.IsPerChannel() {
		t.Error("IsPerChannel")
	}
	if p.Scale(1) != 0.2 {
		t.Error("per-channel scale lookup")
	}
	pt := PerTensor(0.5, 3)
	if pt.IsPerChannel() || pt.Scale(7) != 0.5 || pt.ZeroPoint(7) != 3 {
		t.Error("per-tensor accessors should ignore the channel index")
	}
}

// Property: the fixed-point multiplier reproduces real multiplication within
// 1 ulp of the accumulator for representative requantization scales.
func TestMultiplierMatchesRealMath(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		real := math.Exp(rng.Float64()*8 - 9) // ~[1e-4, 0.4]
		mul, err := NewMultiplier(real)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			acc := int32(rng.Intn(1<<20) - 1<<19)
			got := mul.Apply(acc)
			want := math.Round(float64(acc) * real)
			if math.Abs(float64(got)-want) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMultiplierGEOne(t *testing.T) {
	mul, err := NewMultiplier(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := mul.Apply(100); math.Abs(float64(got)-250) > 1 {
		t.Errorf("2.5 * 100 = %d", got)
	}
	if math.Abs(mul.Real()-2.5) > 1e-6 {
		t.Errorf("Real() = %v", mul.Real())
	}
}

// TestLogicalShiftBugDefinition pins the historical defect to its definition,
// written out here with its branch: a multiplier >= 1 has no right shift to
// get wrong, a non-negative high-multiply rounds correctly, and a negative
// one is shifted right logically, its sign bit coming down as value. The
// kernel-side function selects between the two shifts instead of branching.
func TestLogicalShiftBugDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	accs := []int32{0, 1, -1, 2, -2, math.MaxInt32, math.MinInt32, math.MinInt32 + 1, 1 << 20, -(1 << 20)}
	for i := 0; i < 2000; i++ {
		accs = append(accs, int32(rng.Uint32())>>uint(rng.Intn(32)))
	}
	for _, real := range []float64{1e-12, 3e-5, 0.0123, 0.25, 0.4999, 0.5, 0.75, 0.99999, 1, 2.5, 1000} {
		mul, err := NewMultiplier(real)
		if err != nil {
			t.Fatal(err)
		}
		for _, acc := range accs {
			want := mul.Apply(acc)
			if mul.Shift > 0 {
				if v := saturatingRoundingDoublingHighMul(acc, mul.M); v >= 0 {
					want = roundingRightShift(v, mul.Shift)
				} else {
					want = int32(uint32(v) >> uint(mul.Shift))
				}
			}
			if got := mul.ApplyLogicalShiftBug(acc); got != want {
				t.Fatalf("multiplier %v (M=%d shift=%d), acc %d: %d, definition gives %d", real, mul.M, mul.Shift, acc, got, want)
			}
		}
	}
}

func TestMultiplierRejectsBad(t *testing.T) {
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewMultiplier(v); err == nil {
			t.Errorf("NewMultiplier(%v) accepted", v)
		}
	}
}

func TestObserverMinMax(t *testing.T) {
	o := NewObserver(0)
	o.Observe(tensor.FromFloats([]float32{-2, 0, 5}, 3))
	o.Observe(tensor.FromFloats([]float32{1, 7}, 2))
	mn, mx, err := o.Range()
	if err != nil || mn != -2 || mx != 7 {
		t.Errorf("range = [%v, %v], %v", mn, mx, err)
	}
	if _, _, err := NewObserver(0).Range(); err == nil {
		t.Error("empty observer should error")
	}
}

func TestObserverPercentileClipsOutlier(t *testing.T) {
	// 1000 normal values in [0, 1] plus one huge outlier: strict min/max
	// inflates the scale 100x; 1% clipping recovers the usable range (§2
	// scale-calibration pitfall).
	rng := rand.New(rand.NewSource(3))
	vals := make([]float32, 1000)
	for i := range vals {
		vals[i] = float32(rng.Float64())
	}
	vals[500] = 100

	strict := NewObserver(0)
	strict.Observe(tensor.FromFloats(vals, len(vals)))
	_, mxStrict, _ := strict.Range()
	if mxStrict != 100 {
		t.Fatalf("strict max = %v", mxStrict)
	}

	clipped := NewObserver(0.01)
	clipped.Observe(tensor.FromFloats(vals, len(vals)))
	_, mxClip, err := clipped.Range()
	if err != nil {
		t.Fatal(err)
	}
	if mxClip > 2 {
		t.Errorf("clipped max = %v, outlier not rejected", mxClip)
	}
	p, err := clipped.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Scale(0) > 0.02 {
		t.Errorf("clipped scale = %v still inflated", p.Scale(0))
	}
}

func TestObserverReservoirBounded(t *testing.T) {
	o := NewObserver(0.001)
	big := tensor.New(tensor.F32, 1<<15)
	for i := 0; i < 8; i++ {
		o.Observe(big)
	}
	if len(o.samples) > 1<<16 {
		t.Errorf("reservoir grew to %d", len(o.samples))
	}
}

func TestQuantizeWeightsPerChannelScales(t *testing.T) {
	// Two output channels with magnitudes 1.0 and 0.001: per-channel keeps
	// both resolvable.
	w := tensor.FromFloats([]float32{1, -0.5, 0.001, -0.0005}, 2, 2)
	q, p, err := QuantizeWeightsPerChannel(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsPerChannel() {
		t.Fatal("expected per-channel params")
	}
	if q.I[0] != 127 {
		t.Errorf("q[0] = %d, want 127", q.I[0])
	}
	if q.I[2] != 127 {
		t.Errorf("small channel q = %d, want 127 under its own scale", q.I[2])
	}
}

func TestPerTensorSquashesSmallChannel(t *testing.T) {
	// The §2 pitfall: with one scale, the 0.001-magnitude channel rounds to
	// zero entirely.
	w := tensor.FromFloats([]float32{1, -0.5, 0.001, -0.0005}, 2, 2)
	q, p, err := QuantizeWeightsPerTensor(w)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsPerChannel() {
		t.Fatal("expected per-tensor params")
	}
	if q.I[2] != 0 || q.I[3] != 0 {
		t.Errorf("small channel survived per-tensor quantization: %v", q.I)
	}
}

func TestQuantizeWeightsErrors(t *testing.T) {
	if _, _, err := QuantizeWeightsPerChannel(tensor.New(tensor.U8, 2, 2), 0); err == nil {
		t.Error("accepted non-float weights")
	}
	if _, _, err := QuantizeWeightsPerChannel(tensor.New(tensor.F32, 2, 2), 5); err == nil {
		t.Error("accepted bad axis")
	}
	if _, _, err := QuantizeWeightsPerTensor(tensor.New(tensor.I8, 2)); err == nil {
		t.Error("accepted non-float weights")
	}
}

func TestQuantizeDequantizeTensorU8(t *testing.T) {
	p := AsymmetricU8Params(-1, 1)
	in := tensor.FromFloats([]float32{-1, -0.5, 0, 0.5, 1}, 5)
	q := QuantizeTensorU8(in, p)
	back := DequantizeTensorU8(q, p)
	for i := range in.F {
		if math.Abs(float64(back.F[i]-in.F[i])) > p.Scale(0) {
			t.Errorf("round trip [%d]: %v -> %v", i, in.F[i], back.F[i])
		}
	}
}

func TestQuantizeBias(t *testing.T) {
	b := tensor.FromFloats([]float32{0.5, -0.25}, 2)
	wp := PerChannel([]float64{0.01, 0.02}, []int32{0, 0}, 0)
	q := QuantizeBias(b, 0.5, wp)
	// bias_q = bias / (inScale * wScale(c))
	if q.X[0] != 100 {
		t.Errorf("bias[0] = %d, want 100", q.X[0])
	}
	if q.X[1] != -25 {
		t.Errorf("bias[1] = %d, want -25", q.X[1])
	}
	pt := PerTensor(0.01, 0)
	q2 := QuantizeBias(b, 1.0, pt)
	if q2.X[0] != 50 || q2.X[1] != -25 {
		t.Errorf("per-tensor bias = %v", q2.X)
	}
}
