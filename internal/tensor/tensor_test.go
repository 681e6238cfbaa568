package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapesAndLen(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{[]int{}, 1},
		{[]int{0}, 0},
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{1, 4, 4, 3}, 48},
	}
	for _, c := range cases {
		tt := New(F32, c.shape...)
		if tt.Len() != c.want {
			t.Errorf("Len(%v) = %d, want %d", c.shape, tt.Len(), c.want)
		}
		if len(tt.F) != c.want {
			t.Errorf("storage for %v = %d, want %d", c.shape, len(tt.F), c.want)
		}
	}
}

func TestDTypeSizesAndNames(t *testing.T) {
	for _, c := range []struct {
		dt   DType
		name string
		size int
	}{{F32, "f32", 4}, {U8, "u8", 1}, {I8, "i8", 1}, {I32, "i32", 4}} {
		if c.dt.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.dt, c.dt.String(), c.name)
		}
		if c.dt.Size() != c.size {
			t.Errorf("%v.Size() = %d, want %d", c.dt, c.dt.Size(), c.size)
		}
		back, err := ParseDType(c.name)
		if err != nil || back != c.dt {
			t.Errorf("ParseDType(%q) = %v, %v", c.name, back, err)
		}
	}
	if _, err := ParseDType("f64"); err == nil {
		t.Error("ParseDType accepted unknown dtype")
	}
}

func TestOffsetRowMajor(t *testing.T) {
	tt := New(F32, 2, 3, 4)
	if got := tt.Offset(1, 2, 3); got != 1*12+2*4+3 {
		t.Errorf("Offset(1,2,3) = %d", got)
	}
	if got := tt.Offset(0, 0, 0); got != 0 {
		t.Errorf("Offset(0,0,0) = %d", got)
	}
}

func TestOffsetBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds index")
		}
	}()
	New(F32, 2, 2).Offset(2, 0)
}

func TestAtSetAtRoundTrip(t *testing.T) {
	for _, dt := range []DType{F32, U8, I8, I32} {
		tt := New(dt, 2, 2)
		tt.SetAt(3, 1, 0)
		if got := tt.At(1, 0); got != 3 {
			t.Errorf("dtype %v: At = %v, want 3", dt, got)
		}
		if got := tt.At(0, 1); got != 0 {
			t.Errorf("dtype %v: untouched cell = %v, want 0", dt, got)
		}
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	a := FromFloats([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.F[0] = 99
	if a.F[0] != 99 {
		t.Error("Reshape should alias storage")
	}
	c := a.Reshape(-1, 2)
	if !SameShape(c.Shape, []int{3, 2}) {
		t.Errorf("inferred shape = %v", c.Shape)
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(F32, 4).Reshape(3)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromFloats([]float32{1, 2}, 2)
	b := a.Clone()
	b.F[0] = 5
	if a.F[0] != 1 {
		t.Error("Clone should copy storage")
	}
}

func TestCopyFromChecksDtype(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected dtype mismatch panic")
		}
	}()
	New(F32, 2).CopyFrom(New(U8, 2))
}

func TestFillAndZero(t *testing.T) {
	tt := New(I32, 3)
	tt.Fill(7)
	for _, v := range tt.X {
		if v != 7 {
			t.Fatalf("Fill: %v", tt.X)
		}
	}
	tt.Zero()
	for _, v := range tt.X {
		if v != 0 {
			t.Fatalf("Zero: %v", tt.X)
		}
	}
}

func TestArgMax(t *testing.T) {
	tt := FromFloats([]float32{0.1, 0.9, 0.9, 0.2}, 4)
	if got := tt.ArgMax(); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (first of tie)", got)
	}
	u := FromBytes([]uint8{3, 200, 7}, 3)
	if got := u.ArgMax(); got != 1 {
		t.Errorf("u8 ArgMax = %d", got)
	}
}

func TestFloatsWidening(t *testing.T) {
	i := FromInt8([]int8{-5, 3}, 2)
	f := i.Floats()
	if f[0] != -5 || f[1] != 3 {
		t.Errorf("Floats() = %v", f)
	}
}

func TestIsFinite(t *testing.T) {
	tt := FromFloats([]float32{1, 2}, 2)
	if !tt.IsFinite() {
		t.Error("finite tensor reported non-finite")
	}
	tt.F[1] = float32(math.NaN())
	if tt.IsFinite() {
		t.Error("NaN not detected")
	}
	tt.F[1] = float32(math.Inf(1))
	if tt.IsFinite() {
		t.Error("Inf not detected")
	}
}

func TestComputeStats(t *testing.T) {
	tt := FromFloats([]float32{-1, 0, 1, 2}, 4)
	s := ComputeStats(tt)
	if s.Min != -1 || s.Max != 2 || s.N != 4 {
		t.Errorf("stats = %+v", s)
	}
	if math.Abs(s.Mean-0.5) > 1e-9 {
		t.Errorf("mean = %v", s.Mean)
	}
	wantRMS := math.Sqrt((1 + 0 + 1 + 4) / 4.0)
	if math.Abs(s.RMS-wantRMS) > 1e-9 {
		t.Errorf("rms = %v, want %v", s.RMS, wantRMS)
	}
	if s.Range() != 3 {
		t.Errorf("range = %v", s.Range())
	}
}

// statsPerElement is the per-element loop ComputeStats ran before its scan was
// typed, kept as the oracle: one flat() widening per element, two float64
// chains in index order.
func statsPerElement(t *Tensor) Stats {
	n := t.Len()
	if n == 0 {
		return Stats{}
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := t.flat(i)
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		sum += v
		sumSq += v * v
	}
	return Stats{Min: mn, Max: mx, Mean: sum / float64(n), RMS: math.Sqrt(sumSq / float64(n)), N: n}
}

// TestComputeStatsMatchesFlat holds the typed scans to the per-element loop
// bit for bit — including the F32 non-finite cases, where NaN must stay out of
// Min/Max and poison Mean/RMS exactly as before.
func TestComputeStatsMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var cases []*Tensor
	for _, n := range []int{0, 1, 7, 1568, 6272} {
		f := New(F32, n)
		RandUniform(rng, f, -3, 5)
		u, i8, x := New(U8, n), New(I8, n), New(I32, n)
		for i := 0; i < n; i++ {
			u.U[i] = uint8(rng.Intn(256))
			i8.I[i] = int8(rng.Intn(256) - 128)
			x.X[i] = int32(rng.Uint32())
		}
		cases = append(cases, f, u, i8, x)
	}
	for _, special := range [][]float32{
		{1, float32(math.NaN()), -2},
		{float32(math.NaN())},
		{float32(math.Inf(1)), 0, float32(math.Inf(-1))},
		{float32(math.Inf(-1)), 3},
		{math.MaxFloat32, math.MaxFloat32, -math.MaxFloat32},
	} {
		cases = append(cases, FromFloats(special, len(special)))
	}
	all255, allMin := New(U8, 6272), New(I8, 6272)
	all255.Fill(255)
	allMin.Fill(-128)
	cases = append(cases, all255, allMin)
	bits := math.Float64bits
	for _, tt := range cases {
		got, want := ComputeStats(tt), statsPerElement(tt)
		if bits(got.Min) != bits(want.Min) || bits(got.Max) != bits(want.Max) ||
			bits(got.Mean) != bits(want.Mean) || bits(got.RMS) != bits(want.RMS) || got.N != want.N {
			t.Errorf("%v: typed scan %+v, per-element loop %+v", tt, got, want)
		}
	}
}

func TestRMSEAndNormalized(t *testing.T) {
	a := FromFloats([]float32{0, 0, 0, 0}, 4)
	b := FromFloats([]float32{1, 1, 1, 1}, 4)
	r, err := RMSE(a, b)
	if err != nil || r != 1 {
		t.Errorf("RMSE = %v, %v", r, err)
	}
	// Reference is constant, so normalization falls back to raw rMSE.
	nr, err := NormalizedRMSE(a, b)
	if err != nil || nr != 1 {
		t.Errorf("NormalizedRMSE const ref = %v, %v", nr, err)
	}
	ref := FromFloats([]float32{0, 10, 0, 10}, 4)
	nr, err = NormalizedRMSE(a, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((0+100+0+100)/4.0) / 10.0
	if math.Abs(nr-want) > 1e-9 {
		t.Errorf("NormalizedRMSE = %v, want %v", nr, want)
	}
	if _, err := RMSE(a, New(F32, 3)); err == nil {
		t.Error("RMSE accepted length mismatch")
	}
}

// TestNormalizedRMSEIsRMSEOverRange holds the one-walk NormalizedRMSE to its
// definition, RMSE(edge, ref) / ComputeStats(ref).Range(), bit for bit — on
// mixed dtypes, with NaN and ±Inf in either tensor, an all-NaN and a constant
// reference, and the empty tensor — and to RMSE's error on a length mismatch.
func TestNormalizedRMSEIsRMSEOverRange(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	cases := []struct{ edge, ref *Tensor }{
		{FromFloats([]float32{1, 2.5, -3, 1e-7}, 4), FromFloats([]float32{0.1, 7, -3, 9}, 4)},
		{FromFloats([]float32{1, nan, 3}, 3), FromFloats([]float32{4, 5, 9}, 3)},
		{FromFloats([]float32{1, 2, 3}, 3), FromFloats([]float32{nan, 5, 9}, 3)},
		{FromFloats([]float32{1, 2}, 2), FromFloats([]float32{nan, nan}, 2)},
		{FromFloats([]float32{1, 2, 3}, 3), FromFloats([]float32{inf, -inf, 0}, 3)},
		{FromFloats([]float32{inf, 2}, 2), FromFloats([]float32{inf, 1}, 2)},
		{FromFloats([]float32{4, 4}, 2), FromFloats([]float32{7, 7}, 2)},
		{FromBytes([]uint8{0, 255, 17}, 3), FromInt8([]int8{-128, 127, 3}, 3)},
		{FromInt32([]int32{1 << 30, -5}, 2), FromFloats([]float32{0.5, 2}, 2)},
		{New(F32, 0), New(F32, 0)},
	}
	for i, c := range cases {
		got, err := NormalizedRMSE(c.edge, c.ref)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, _ := RMSE(c.edge, c.ref)
		if rng := ComputeStats(c.ref).Range(); rng > 0 {
			want /= rng
		}
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("case %d: NormalizedRMSE = %v, RMSE/range = %v", i, got, want)
		}
	}
	_, err := NormalizedRMSE(New(F32, 2), New(F32, 3))
	_, want := RMSE(New(F32, 2), New(F32, 3))
	if err == nil || err.Error() != want.Error() {
		t.Errorf("length mismatch: %v, want RMSE's %v", err, want)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromFloats([]float32{1, -4}, 2)
	b := FromFloats([]float32{0, 1}, 2)
	d, err := MaxAbsDiff(a, b)
	if err != nil || d != 5 {
		t.Errorf("MaxAbsDiff = %v, %v", d, err)
	}
}

func TestAllClose(t *testing.T) {
	a := FromFloats([]float32{1.0001, 2}, 2)
	b := FromFloats([]float32{1, 2}, 2)
	if !AllClose(a, b, 1e-3, 1e-3) {
		t.Error("AllClose false negative")
	}
	if AllClose(a, b, 0, 1e-6) {
		t.Error("AllClose false positive")
	}
	if AllClose(a, New(F32, 3), 1, 1) {
		t.Error("AllClose should reject shape mismatch")
	}
}

// Property: RMSE(a, a) == 0 and is symmetric for arbitrary vectors.
func TestRMSEPropertySymmetry(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		a := FromFloats(append([]float32(nil), vals...), len(vals))
		b := FromFloats(append([]float32(nil), vals...), len(vals))
		self, _ := RMSE(a, a)
		ab, _ := RMSE(a, b)
		ba, _ := RMSE(b, a)
		return self == 0 && ab == ba
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: stats min <= mean <= max for arbitrary non-empty inputs.
func TestStatsOrderingProperty(t *testing.T) {
	f := func(vals []float32) bool {
		clean := make([]float32, 0, len(vals))
		for _, v := range vals {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
				// Clamp magnitude so the float64 accumulators cannot overflow.
				if v > 1e18 {
					v = 1e18
				}
				if v < -1e18 {
					v = -1e18
				}
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := ComputeStats(FromFloats(clean, len(clean)))
		return s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Reshape twice returns to the same flat contents.
func TestReshapeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tt := New(F32, 4, 6)
		RandUniform(rng, tt, -1, 1)
		r := tt.Reshape(8, 3).Reshape(4, 6)
		for i := range tt.F {
			if r.F[i] != tt.F[i] {
				return false
			}
		}
		return SameShape(r.Shape, tt.Shape)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHeInitVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tt := New(F32, 10000)
	HeInit(rng, tt, 50)
	s := ComputeStats(tt)
	wantStd := math.Sqrt(2.0 / 50.0)
	if math.Abs(s.Mean) > 0.02 {
		t.Errorf("He init mean = %v", s.Mean)
	}
	if math.Abs(s.RMS-wantStd) > 0.02 {
		t.Errorf("He init std = %v, want ~%v", s.RMS, wantStd)
	}
}

func TestGlorotInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tt := New(F32, 1000)
	GlorotInit(rng, tt, 8, 8)
	limit := math.Sqrt(6.0 / 16.0)
	s := ComputeStats(tt)
	if s.Min < -limit || s.Max > limit {
		t.Errorf("Glorot out of bounds: [%v, %v] limit %v", s.Min, s.Max, limit)
	}
}

func TestSameShapeAndString(t *testing.T) {
	if !SameShape([]int{1, 2}, []int{1, 2}) || SameShape([]int{1}, []int{1, 2}) || SameShape([]int{2}, []int{3}) {
		t.Error("SameShape misbehaves")
	}
	tt := New(U8, 1, 3)
	if tt.String() != "u8[1 3]" {
		t.Errorf("String = %q", tt.String())
	}
	if tt.Bytes() != 3 {
		t.Errorf("Bytes = %d", tt.Bytes())
	}
	if tt.Dim(-1) != 3 || tt.Dim(0) != 1 || tt.Rank() != 2 {
		t.Error("Dim/Rank misbehave")
	}
}
