package core

import (
	"encoding/binary"
	"math"
	"slices"

	"mlexray/internal/tensor"
)

// This file is the arithmetic of the per-layer drift check (§3.4): one walk
// over an edge and a reference layer record's payload bytes that yields
// Σd² and max|d| together. It replaces decoding both records into tensors
// and walking them four times (tensor.RMSE twice, ComputeStats, MaxAbsDiff);
// that composition survives as the oracle the differential test and
// FuzzLayerDrift compare against, bit for bit.
//
// What "bit for bit" rests on: every element is first rounded to float32
// exactly as DecodeTensor would store it — a dequantised value is
// float32(QScale·(q−QZero)), an integer without quantization params is
// float32(q) (so an i32 beyond 2²⁴ rounds) — then widened to float64, and
// the differences are squared and summed in float64 in index order.

// drift walks one validated edge/reference pair of rl.elems elements each.
// The dtype pair is dispatched here, outside the element loops: the pairs
// the collector sees — float edge or quantised edge against a float
// reference — run straight over the wire bytes; anything else widens into
// the two scratch slices first.
func (w *driftScratch) drift(er *Record, edt tensor.DType, rl refLayer) (sumSq, maxAbs float64) {
	if rl.dt == tensor.F32 {
		switch {
		case edt == tensor.F32:
			return driftF32(er.Payload, rl.rec.Payload)
		case edt == tensor.U8 && er.QScale != 0:
			return driftQuant[uint8](er.Payload, er.QScale, er.QZero, rl.rec.Payload)
		case edt == tensor.I8 && er.QScale != 0:
			return driftQuant[int8](er.Payload, er.QScale, er.QZero, rl.rec.Payload)
		}
	}
	w.edgeVals = widenPayload(w.edgeVals[:0], er, edt, rl.elems)
	w.refVals = widenPayload(w.refVals[:0], rl.rec, rl.dt, rl.elems)
	return driftFloats(w.edgeVals, w.refVals)
}

// driftF32 is the float×float pair: both payloads are little-endian float32.
func driftF32(e, r []byte) (sumSq, maxAbs float64) {
	for len(e) >= 4 && len(r) >= 4 {
		a := math.Float32frombits(binary.LittleEndian.Uint32(e))
		b := math.Float32frombits(binary.LittleEndian.Uint32(r))
		d := float64(a) - float64(b)
		sumSq += d * d
		if d = math.Abs(d); d > maxAbs {
			maxAbs = d
		}
		e, r = e[4:], r[4:]
	}
	return sumSq, maxAbs
}

// driftQuant is a quantised one-byte edge payload (u8 or i8 with QScale)
// against a float reference, dequantised on the fly.
func driftQuant[Q uint8 | int8](e []byte, scale float64, zero int32, r []byte) (sumSq, maxAbs float64) {
	for _, q := range e {
		if len(r) < 4 {
			break
		}
		a := float32(scale * float64(int32(Q(q))-zero))
		b := math.Float32frombits(binary.LittleEndian.Uint32(r))
		d := float64(a) - float64(b)
		sumSq += d * d
		if d = math.Abs(d); d > maxAbs {
			maxAbs = d
		}
		r = r[4:]
	}
	return sumSq, maxAbs
}

// driftFloats is the fallback pair: both sides already widened.
func driftFloats(e, r []float32) (sumSq, maxAbs float64) {
	r = r[:len(e)]
	for i, a := range e {
		d := float64(a) - float64(r[i])
		sumSq += d * d
		if d = math.Abs(d); d > maxAbs {
			maxAbs = d
		}
	}
	return sumSq, maxAbs
}

// widenPayload appends the record's n elements to dst as the float32 values
// the comparison sees: what DecodeTensor yields, with integers that carry no
// quantization params (and every i32) widened raw.
func widenPayload(dst []float32, r *Record, dt tensor.DType, n int) []float32 {
	dst = slices.Grow(dst, n)
	buf := r.Payload
	switch dt {
	case tensor.F32:
		for i := 0; i < n; i++ {
			dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	case tensor.I32:
		for i := 0; i < n; i++ {
			dst = append(dst, float32(int32(binary.LittleEndian.Uint32(buf[4*i:]))))
		}
	case tensor.U8:
		dst = widenBytes[uint8](dst, buf, r.QScale, r.QZero)
	case tensor.I8:
		dst = widenBytes[int8](dst, buf, r.QScale, r.QZero)
	}
	return dst
}

func widenBytes[Q uint8 | int8](dst []float32, buf []byte, scale float64, zero int32) []float32 {
	if scale == 0 {
		for _, q := range buf {
			dst = append(dst, float32(Q(q)))
		}
		return dst
	}
	for _, q := range buf {
		dst = append(dst, float32(scale*float64(int32(Q(q))-zero)))
	}
	return dst
}

// valueRange is max−min over the values, the scale the paper normalizes a
// layer's rMSE by. It is tensor.ComputeStats(t).Range() without the rest of
// the stats: NaNs compare false and are skipped, and an empty tensor has
// range 0.
func valueRange(vals []float32) float64 {
	if len(vals) == 0 {
		return 0
	}
	mn, mx := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range vals {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return float64(mx) - float64(mn)
}

// rangeF32 is valueRange over a little-endian float32 payload, read where
// it lies instead of widened into a scratch slice and walked again. Four
// independent min/max pairs break the compare chain; min and max do not
// depend on the order values are seen in, and NaNs still compare false, so
// the result is valueRange's bit for bit (the lanes are combined first lane
// first, which is what keeps a payload of mixed ±0 at range +0).
func rangeF32(p []byte) float64 {
	if len(p) < 4 {
		return 0
	}
	inf := float32(math.Inf(1))
	mn, mx := [4]float32{inf, inf, inf, inf}, [4]float32{-inf, -inf, -inf, -inf}
	lane := func(i int, p []byte) {
		v := math.Float32frombits(binary.LittleEndian.Uint32(p))
		if v < mn[i] {
			mn[i] = v
		}
		if v > mx[i] {
			mx[i] = v
		}
	}
	for ; len(p) >= 16; p = p[16:] {
		lane(0, p)
		lane(1, p[4:])
		lane(2, p[8:])
		lane(3, p[12:])
	}
	for i := 0; len(p) >= 4; i, p = i+1, p[4:] {
		lane(i, p)
	}
	for i := 1; i < 4; i++ {
		if mn[i] < mn[0] {
			mn[0] = mn[i]
		}
		if mx[i] > mx[0] {
			mx[0] = mx[i]
		}
	}
	return float64(mx[0]) - float64(mn[0])
}
