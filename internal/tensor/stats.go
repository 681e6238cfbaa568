package tensor

import (
	"fmt"
	"math"
)

// Stats summarises a tensor's value distribution. It is the payload of
// "stats-only" telemetry records, which keep the runtime logging overhead at
// the paper's reported 0.41 KB/frame instead of shipping full tensors.
type Stats struct {
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	RMS  float64 `json:"rms"`
	N    int     `json:"n"`
}

// ComputeStats scans the tensor once and returns its Stats. Quantized
// tensors report raw integer values. The scan dispatches on the dtype once:
// F32 and I32 widen element by element in index order (the float64 sums are
// order-sensitive), U8 and I8 sum in integers — every partial sum the
// float64 chain would hold is an integer below 2^53, so converting the
// totals once gives the same Mean and RMS bits.
func ComputeStats(t *Tensor) Stats {
	n := t.Len()
	if n == 0 {
		return Stats{}
	}
	var mn, mx, sum, sumSq float64
	switch t.DType {
	case F32:
		mn, mx, sum, sumSq = scanWide(t.F[:n])
	case I32:
		mn, mx, sum, sumSq = scanWide(t.X[:n])
	case U8:
		mn, mx, sum, sumSq = scanBytes(t.U[:n])
	case I8:
		mn, mx, sum, sumSq = scanBytes(t.I[:n])
	default:
		panic("tensor: bad dtype")
	}
	return Stats{
		Min:  mn,
		Max:  mx,
		Mean: sum / float64(n),
		RMS:  math.Sqrt(sumSq / float64(n)),
		N:    n,
	}
}

// scanWide is the order-preserving float64 scan of a 32-bit element slice.
// NaN fails both compares, so it never becomes Min or Max.
func scanWide[T float32 | int32](xs []T) (mn, mx, sum, sumSq float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		v := float64(x)
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		sum += v
		sumSq += v * v
	}
	return mn, mx, sum, sumSq
}

// scanBytes is the integer scan of a non-empty 8-bit element slice.
func scanBytes[T uint8 | int8](xs []T) (mn, mx, sum, sumSq float64) {
	lo, hi := xs[0], xs[0]
	var s, sq int64
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		v := int64(x)
		s += v
		sq += v * v
	}
	return float64(lo), float64(hi), float64(s), float64(sq)
}

// Range returns max-min, the "layer output scale" used by the paper to
// normalize per-layer rMSE.
func (s Stats) Range() float64 { return s.Max - s.Min }

// RMSE returns the root-mean-square error between two equal-length tensors,
// evaluated in float64. The tensors may have different dtypes (e.g. a
// dequantized edge output versus a float reference); both are widened.
func RMSE(a, b *Tensor) (float64, error) {
	if a.Len() != b.Len() {
		return 0, fmt.Errorf("tensor: RMSE length mismatch %v vs %v", a.Shape, b.Shape)
	}
	n := a.Len()
	if n == 0 {
		return 0, nil
	}
	var sum float64
	for i := 0; i < n; i++ {
		d := a.flat(i) - b.flat(i)
		sum += d * d
	}
	return math.Sqrt(sum / float64(n)), nil
}

// NormalizedRMSE implements the paper's per-layer drift metric
// (§3.4): rMSE(a, b) normalized by the reference tensor's value range
// max(e)-min(e). A degenerate (constant) reference yields the raw rMSE so a
// drift against a flat-lined layer is still visible rather than dividing by
// zero. The squared differences and the reference's range come out of one
// walk; the result is RMSE(edge, ref) / ComputeStats(ref).Range() bit for bit.
func NormalizedRMSE(edge, ref *Tensor) (float64, error) {
	if edge.Len() != ref.Len() {
		return 0, fmt.Errorf("tensor: RMSE length mismatch %v vs %v", edge.Shape, ref.Shape)
	}
	n := edge.Len()
	if n == 0 {
		return 0, nil
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	var sum float64
	for i := 0; i < n; i++ {
		r := ref.flat(i)
		if r < mn {
			mn = r
		}
		if r > mx {
			mx = r
		}
		d := edge.flat(i) - r
		sum += d * d
	}
	rmse := math.Sqrt(sum / float64(n))
	if rng := mx - mn; rng > 0 {
		return rmse / rng, nil
	}
	return rmse, nil
}

// MaxAbsDiff returns the maximum absolute element-wise difference, an
// alternative error function the framework's ablation compares against
// normalized rMSE.
func MaxAbsDiff(a, b *Tensor) (float64, error) {
	if a.Len() != b.Len() {
		return 0, fmt.Errorf("tensor: MaxAbsDiff length mismatch %v vs %v", a.Shape, b.Shape)
	}
	var m float64
	for i := 0; i < a.Len(); i++ {
		d := math.Abs(a.flat(i) - b.flat(i))
		if d > m {
			m = d
		}
	}
	return m, nil
}

// AllClose reports whether every pair of elements differs by at most
// atol + rtol*|b|. It mirrors numpy's allclose, which the paper's example
// assertion functions are written with.
func AllClose(a, b *Tensor, rtol, atol float64) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		av, bv := a.flat(i), b.flat(i)
		if math.Abs(av-bv) > atol+rtol*math.Abs(bv) {
			return false
		}
	}
	return true
}
