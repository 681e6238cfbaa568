package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mlexray/internal/tensor"
)

// oracleLayerDrift is the composition the fused pass replaced, kept as the
// reference it is tested against: decode both records into tensors, widen
// integer tensors raw, then tensor.NormalizedRMSE, RMSE and MaxAbsDiff, each
// its own walk. skipped reports a pair the analysis passes over (element
// counts differ).
func oracleLayerDrift(t *testing.T, er, rr *Record) (nrmse, rmse, maxAbs float64, skipped bool, err error) {
	t.Helper()
	et, err := er.DecodeTensor()
	if err != nil {
		return 0, 0, 0, false, err
	}
	rt, err := rr.DecodeTensor()
	if err != nil {
		return 0, 0, 0, false, err
	}
	widen := func(t *tensor.Tensor) *tensor.Tensor {
		if t.DType == tensor.F32 {
			return t
		}
		return tensor.FromFloats(t.Floats(), t.Shape...)
	}
	et, rt = widen(et), widen(rt)
	if et.Len() != rt.Len() {
		return 0, 0, 0, true, nil
	}
	if nrmse, err = tensor.NormalizedRMSE(et, rt); err != nil {
		return 0, 0, 0, false, err
	}
	rmse, _ = tensor.RMSE(et, rt)
	maxAbs, _ = tensor.MaxAbsDiff(et, rt)
	// NormalizedRMSE is itself a fused walk now; hold it to its definition.
	want := rmse
	if rng := tensor.ComputeStats(rt).Range(); rng > 0 {
		want = rmse / rng
	}
	if !sameFloat(nrmse, want) {
		t.Fatalf("tensor.NormalizedRMSE = %v, RMSE/range = %v", nrmse, want)
	}
	return nrmse, rmse, maxAbs, false, nil
}

// sameFloat is bit equality, except that any NaN equals any NaN: which of
// two NaN operands' payloads an x86 add propagates depends on the register
// the compiler picked, and no report can show a NaN's payload.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkLayerDrift feeds one edge/reference pair through a fresh
// layerDiffState and requires exactly the oracle's outcome: the same three
// numbers bit for bit (sameFloat), the same skip, or the same error text and the same
// sticky poison.
func checkLayerDrift(t *testing.T, er, rr *Record) {
	t.Helper()
	ri := newRefIndex(&Log{Records: []Record{*rr}})
	var s layerDiffState
	checkLayerDriftIn(t, &s, ri, er, rr)
}

func checkLayerDriftIn(t *testing.T, s *layerDiffState, ri *refIndex, er, rr *Record) {
	t.Helper()
	wantN, wantR, wantA, skipped, wantErr := oracleLayerDrift(t, er, rr)
	before := len(s.order)
	err := s.consume(er, ri)
	desc := fmt.Sprintf("edge %s%v q=(%v,%d) × ref %s%v q=(%v,%d)",
		er.DType, er.Shape, er.QScale, er.QZero, rr.DType, rr.Shape, rr.QScale, rr.QZero)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, oracle says %v", desc, err, wantErr)
		}
		// Sticky: the analysis is poisoned, later records are ignored and
		// finalize reports the same error.
		if err := s.consume(er, ri); err != nil || len(s.order) != before {
			t.Fatalf("%s: poisoned state still consumes (err %v)", desc, err)
		}
		if _, ferr := s.finalize(); ferr == nil || ferr.Error() != wantErr.Error() {
			t.Fatalf("%s: finalize after poison = %v, want %v", desc, ferr, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: error %v, oracle has none", desc, err)
	}
	if skipped {
		if len(s.order) != before {
			t.Fatalf("%s: a length-mismatched pair was folded", desc)
		}
		return
	}
	a := s.accs[er.Key]
	if a == nil || a.n != 1 {
		t.Fatalf("%s: pair not folded exactly once: %+v", desc, a)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"nrmse", a.sumN, wantN}, {"rmse", a.sumR, wantR}, {"max_abs", a.maxA, wantA}} {
		if !sameFloat(c.got, c.want) {
			t.Fatalf("%s: %s = %v (%#x), oracle %v (%#x)", desc, c.name,
				c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
}

var driftDTypes = []tensor.DType{tensor.F32, tensor.U8, tensor.I8, tensor.I32}

// specialF32 are the float bit patterns a plain random draw never hits.
var specialF32 = []uint32{
	0x7fc00000, 0xffc00000, // ±NaN
	0x7f800000, 0xff800000, // ±Inf
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x7f7fffff, // smallest subnormal, largest finite
}

// randomLayerRecord builds a layer tensor record of n elements with random
// contents: specials mixed into floats, i32 values beyond 2²⁴ (where the
// float32 widening rounds), random quantization params on about half of the
// integer records.
func randomLayerRecord(rng *rand.Rand, key string, dt tensor.DType, shape []int, constant bool) Record {
	n := tensor.NumElems(shape)
	r := Record{Key: key, Kind: KindTensor, LayerIndex: 3, LayerName: "l", OpType: "Conv2D",
		Shape: shape, DType: dt.String()}
	r.Payload = make([]byte, 0, n*dt.Size())
	var word uint32
	for i := 0; i < n; i++ {
		if i == 0 || !constant {
			switch {
			case dt == tensor.F32 && rng.Intn(8) == 0:
				word = specialF32[rng.Intn(len(specialF32))]
			case dt == tensor.F32:
				word = math.Float32bits(float32(rng.NormFloat64() * 10))
			default:
				word = rng.Uint32() // i32: mostly far beyond 2²⁴
			}
		}
		if dt.Size() == 4 {
			r.Payload = binary.LittleEndian.AppendUint32(r.Payload, word)
		} else {
			r.Payload = append(r.Payload, byte(word))
		}
	}
	if dt != tensor.F32 && rng.Intn(2) == 0 {
		r.QScale = []float64{0.0078125, 1.0 / 3, -0.5, 1e30, math.Inf(1), math.NaN()}[rng.Intn(6)]
		r.QZero = []int32{0, 128, -128, 7, math.MaxInt32, math.MinInt32}[rng.Intn(6)]
	}
	return r
}

// TestLayerDriftMatchesOracle is the differential property test of the fused
// drift pass: random shapes, every dtype pair, random quantization params,
// NaN/±Inf, empty tensors, constant references and i32 beyond 2²⁴ all give
// the oracle's numbers bit for bit. The valid pairs share one state and one
// index, so the widening scratch is reused across sizes as a session's is.
func TestLayerDriftMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shapes := [][]int{{}, {0}, {3, 0, 2}, {1}, {7}, {2, 3, 5}, {1, 9, 9, 4}, {257}}
	var edges, refs []Record
	for _, edt := range driftDTypes {
		for _, rdt := range driftDTypes {
			for round := 0; round < 24; round++ {
				shape := shapes[rng.Intn(len(shapes))]
				key := LayerOutputKey(fmt.Sprintf("%s-%s-%d", edt, rdt, round))
				refShape := shape
				if round%8 == 7 { // same element count, different shape: still compared
					refShape = []int{tensor.NumElems(shape)}
				}
				edges = append(edges, randomLayerRecord(rng, key, edt, shape, false))
				refs = append(refs, randomLayerRecord(rng, key, rdt, refShape, round%6 == 5))
			}
		}
	}
	// A pair whose element counts differ is skipped, not an error.
	edges = append(edges, randomLayerRecord(rng, LayerOutputKey("skip"), tensor.F32, []int{4}, false))
	refs = append(refs, randomLayerRecord(rng, LayerOutputKey("skip"), tensor.F32, []int{5}, false))

	ri := newRefIndex(&Log{Records: refs})
	var s layerDiffState
	for i := range edges {
		checkLayerDriftIn(t, &s, ri, &edges[i], &refs[i])
	}
	if s.err != nil {
		t.Fatalf("valid pairs poisoned the analysis: %v", s.err)
	}
}

// TestLayerDriftHostileRecords: a malformed record on either side fails
// with DecodeTensor's error text — the edge's first when both are bad — and
// poisons the analysis.
func TestLayerDriftHostileRecords(t *testing.T) {
	good := func() Record {
		return randomLayerRecord(rand.New(rand.NewSource(1)), LayerOutputKey("h"), tensor.F32, []int{2, 3}, false)
	}
	hostile := map[string]func(r *Record){
		"negative dim":        func(r *Record) { r.Shape = []int{2, -3} },
		"overflowing shape":   func(r *Record) { r.Shape = []int{1 << 20, 1 << 20, 1 << 20} },
		"payload short":       func(r *Record) { r.Payload = r.Payload[:len(r.Payload)-1] },
		"payload long":        func(r *Record) { r.Payload = append(r.Payload, 0) },
		"payload for scalar":  func(r *Record) { r.Shape = nil },
		"unknown dtype":       func(r *Record) { r.DType = "f64" },
		"empty dtype":         func(r *Record) { r.DType = "" },
		"not a tensor record": func(r *Record) { r.Kind = KindStats },
		"dtype size mismatch": func(r *Record) { r.DType = "u8" },
	}
	for name, corrupt := range hostile {
		t.Run(name, func(t *testing.T) {
			bad := good()
			corrupt(&bad)
			ok := good()
			checkLayerDrift(t, &bad, &ok)
			if bad.Kind == KindTensor { // the index only holds tensor records
				checkLayerDrift(t, &ok, &bad)
			}
			other := good()
			other.DType = "bogus"
			checkLayerDrift(t, &bad, &other)
		})
	}
}

// FuzzLayerDrift holds the fused pass to the oracle on arbitrary records:
// any dtype name, any two dims (negative and overflowing included), any
// payload bytes and quantization params. With fit set the shapes are derived
// from the edge payload so the fuzzer spends its time on pairs that compare.
func FuzzLayerDrift(f *testing.F) {
	nan := math.Float32bits(float32(math.NaN()))
	le := func(words ...uint32) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	f.Add(uint8(0), uint8(0), int64(1), int64(2), le(0x3f800000, nan), le(0x7f800000, 0xc0000000), 0.0, int32(0), 0.0, int32(0), false)
	f.Add(uint8(1), uint8(0), int64(4), int64(1), []byte{0, 127, 128, 255}, le(1, 2, 3, 4), 0.02, int32(128), 0.0, int32(0), false)
	f.Add(uint8(2), uint8(0), int64(0), int64(0), []byte{0x80, 0x7f, 1}, le(5), 0.5, int32(-3), 0.0, int32(0), true)
	f.Add(uint8(3), uint8(3), int64(0), int64(0), le(1<<24+1, 0xffffffff), le(1<<31, 7), 0.0, int32(0), 2.0, int32(1), true)
	f.Add(uint8(1), uint8(2), int64(0), int64(0), []byte{9, 9, 9}, []byte{9}, 0.0, int32(0), 0.25, int32(9), true)
	f.Add(uint8(0), uint8(0), int64(-1), int64(4), le(1), le(1), 0.0, int32(0), 0.0, int32(0), false)
	f.Add(uint8(0), uint8(4), int64(1<<40), int64(1<<40), le(1), le(1), 0.0, int32(0), 0.0, int32(0), false)
	f.Add(uint8(0), uint8(0), int64(0), int64(0), []byte{}, []byte{}, 0.0, int32(0), 0.0, int32(0), true)
	names := []string{"f32", "u8", "i8", "i32", "f64"}
	f.Fuzz(func(t *testing.T, edt, rdt uint8, d0, d1 int64, ep, rp []byte,
		eScale float64, eZero int32, rScale float64, rZero int32, fit bool) {
		key := LayerOutputKey("fuzz")
		er := Record{Key: key, Kind: KindTensor, DType: names[int(edt)%len(names)], Shape: []int{int(d0), int(d1)},
			Payload: ep, QScale: eScale, QZero: eZero}
		rr := Record{Key: key, Kind: KindTensor, DType: names[int(rdt)%len(names)], Shape: []int{int(d0), int(d1)},
			Payload: rp, QScale: rScale, QZero: rZero}
		if edtParsed, err := tensor.ParseDType(er.DType); fit && err == nil {
			n := len(ep) / edtParsed.Size()
			er.Shape, er.Payload = []int{n}, ep[:n*edtParsed.Size()]
			if rdtParsed, err := tensor.ParseDType(rr.DType); err == nil && len(rp) > 0 {
				rr.Shape, rr.Payload = []int{n}, make([]byte, n*rdtParsed.Size())
				for i := range rr.Payload {
					rr.Payload[i] = rp[i%len(rp)]
				}
			}
		}
		checkLayerDrift(t, &er, &rr)
	})
}

// TestLayerDriftSteadyStateAllocs pins the fused pass's allocation contract:
// once a layer's accumulator exists, consuming another record of it
// allocates nothing — on the straight float and quantised loops and on the
// widening fallback alike.
func TestLayerDriftSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pairs := []struct{ edt, rdt tensor.DType }{
		{tensor.F32, tensor.F32}, {tensor.U8, tensor.F32}, {tensor.I8, tensor.F32},
		{tensor.I32, tensor.U8}, {tensor.F32, tensor.I8},
	}
	var edges, refs []Record
	for i, p := range pairs {
		key := LayerOutputKey(fmt.Sprintf("p%d", i))
		e := randomLayerRecord(rng, key, p.edt, []int{8, 8, 16}, false)
		if p.edt != tensor.F32 {
			e.QScale, e.QZero = 0.05, 3
		}
		edges = append(edges, e)
		refs = append(refs, randomLayerRecord(rng, key, p.rdt, []int{8, 8, 16}, false))
	}
	ri := newRefIndex(&Log{Records: refs})
	var s layerDiffState
	for i := range edges { // first contact: index scan, accumulators, scratch
		if err := s.consume(&edges[i], ri); err != nil {
			t.Fatal(err)
		}
	}
	for i := range edges {
		e := &edges[i]
		if allocs := testing.AllocsPerRun(50, func() { _ = s.consume(e, ri) }); allocs != 0 {
			t.Errorf("edge %s × ref %s: %v allocs per steady-state consume, want 0", e.DType, refs[i].DType, allocs)
		}
	}
	if s.err != nil || s.accs[edges[0].Key].n < 50 {
		t.Fatalf("steady-state records were not folded (err %v)", s.err)
	}
}

// TestRefRangeBytesMatchesValueRange holds the reference range scan over
// wire bytes to valueRange over the widened values, bit for bit: every
// length around the four-lane stride, the specials in every lane, all-NaN,
// mixed zeros, and a constant payload.
func TestRefRangeBytesMatchesValueRange(t *testing.T) {
	check := func(what string, vals []float32) {
		t.Helper()
		var payload []byte
		for _, v := range vals {
			payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(v))
		}
		got, want := rangeF32(payload), valueRange(vals)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s %v: rangeF32 = %v (%#x), valueRange = %v (%#x)", what, vals,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	nan, inf, negZero := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 257} {
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(rng.NormFloat64() * 10)
		}
		check("random", vals)
		for _, special := range []float32{nan, inf, -inf, negZero, 0, math.MaxFloat32, -math.MaxFloat32} {
			for at := 0; at < min(n, 9); at++ { // every lane, and the tail
				mixed := slices.Clone(vals)
				mixed[at] = special
				check("one special", mixed)
			}
		}
		for i := range vals {
			vals[i] = nan
		}
		check("all NaN", vals)
		for at := 0; at < min(n, 9); at++ {
			lone := slices.Clone(vals)
			lone[at] = -3.5
			check("one number among NaNs", lone)
		}
		for i := range vals {
			vals[i] = []float32{0, negZero}[rng.Intn(2)]
		}
		check("mixed zeros", vals)
		for i := range vals {
			vals[i] = 2.75
		}
		check("constant", vals)
	}
}
