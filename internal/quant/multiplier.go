package quant

import (
	"fmt"
	"math"
)

// Multiplier is TFLite's fixed-point representation of a real multiplier in
// (0, 1): value ≈ M * 2^(-Shift) where M is a Q31 significand in
// [2^30, 2^31). Quantized kernels requantize int32 accumulators to uint8 by
// multiplying with this fixed-point value — using only integer arithmetic,
// exactly as an ARM kernel would, so the simulated edge runtime has the same
// rounding behaviour class as the real thing.
type Multiplier struct {
	M     int32
	Shift int // right shift applied after the Q31 multiply
}

// NewMultiplier converts a positive real multiplier (< 1 in practice:
// inScale*weightScale/outScale) into fixed point. Multipliers >= 1 are
// supported with a negative shift.
func NewMultiplier(real float64) (Multiplier, error) {
	if real <= 0 || math.IsNaN(real) || math.IsInf(real, 0) {
		return Multiplier{}, fmt.Errorf("quant: multiplier %v out of range", real)
	}
	frac, exp := math.Frexp(real) // real = frac * 2^exp, frac in [0.5, 1)
	m := int64(math.Round(frac * (1 << 31)))
	if m == 1<<31 { // rounding overflow: 1.0 * 2^31
		m /= 2
		exp++
	}
	return Multiplier{M: int32(m), Shift: -exp}, nil
}

// Apply requantizes an int32 accumulator: result ≈ round(acc * real). The
// computation is the standard saturating-rounding-doubling-high-multiply
// followed by a rounding right shift, matching gemmlowp semantics.
func (mul Multiplier) Apply(acc int32) int32 {
	if mul.Shift < 0 {
		// Multiplier >= 1: pre-shift the accumulator (TFLite's
		// MultiplyByQuantizedMultiplier ordering) so no precision is lost
		// to Q31 rounding before the scale-up.
		return saturatingRoundingDoublingHighMul(acc<<uint(-mul.Shift), mul.M)
	}
	v := saturatingRoundingDoublingHighMul(acc, mul.M)
	return roundingRightShift(v, mul.Shift)
}

// Real returns the approximate real value of the multiplier, for
// diagnostics.
func (mul Multiplier) Real() float64 {
	return float64(mul.M) / float64(int64(1)<<31) * math.Pow(2, -float64(mul.Shift))
}

// ApplyLogicalShiftBug emulates the historical vectorized-kernel defect the
// simulated runtime ships in its optimized quantized depthwise convolution:
// the final rounding right shift was emitted as a *logical* shift (SRL)
// instead of an *arithmetic* one (SRA), so negative accumulators have their
// sign bit shifted into the value and come out as huge positives — the
// "different overflow behavior in the optimized kernel" class of bug the
// paper describes (§4.4). Non-negative accumulators are unaffected, which is
// why the defect passes happy-path smoke tests.
func (mul Multiplier) ApplyLogicalShiftBug(acc int32) int32 {
	if mul.Shift <= 0 {
		return mul.Apply(acc)
	}
	v := saturatingRoundingDoublingHighMul(acc, mul.M)
	// Both shifts are computed and one selected, so the sign of v — a coin
	// flip on pre-activation data — costs a conditional move rather than a
	// mispredicted branch in the depthwise store.
	out := roundingRightShift(v, mul.Shift)
	if v < 0 {
		out = int32(uint32(v) >> uint(mul.Shift))
	}
	return out
}

func saturatingRoundingDoublingHighMul(a, b int32) int32 {
	if a == math.MinInt32 && b == math.MinInt32 {
		return math.MaxInt32
	}
	ab := int64(a) * int64(b)
	nudge := int64(1 << 30)
	if ab < 0 {
		nudge = 1 - int64(1<<30)
	}
	return int32((ab + nudge) >> 31)
}

func roundingRightShift(v int32, shift int) int32 {
	if shift <= 0 {
		// Negative shift means a left shift (multiplier >= 1).
		return v << uint(-shift)
	}
	mask := int64(1)<<uint(shift) - 1
	remainder := int64(v) & mask
	threshold := mask >> 1
	if v < 0 {
		threshold++
	}
	out := int64(v) >> uint(shift)
	if remainder > threshold {
		out++
	}
	return int32(out)
}
