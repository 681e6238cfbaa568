package imaging

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mlexray/internal/tensor"
)

func randomImage(rng *rand.Rand, w, h, c int) *Image {
	im := NewImage(w, h, c)
	for i := range im.Pix {
		im.Pix[i] = uint8(rng.Intn(256))
	}
	return im
}

func imagesEqual(a, b *Image) bool {
	if a.W != b.W || a.H != b.H || a.C != b.C {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}

func TestAtSet(t *testing.T) {
	im := NewImage(4, 3, 3)
	im.Set(2, 1, 1, 77)
	if im.At(2, 1, 1) != 77 {
		t.Error("At/Set round trip failed")
	}
	if im.At(0, 0, 0) != 0 {
		t.Error("untouched pixel non-zero")
	}
}

func TestSwapRBInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := randomImage(rng, 5, 4, 3)
	twice := SwapRB(SwapRB(im))
	if !imagesEqual(im, twice) {
		t.Error("SwapRB twice is not identity")
	}
	one := SwapRB(im)
	if one.At(0, 0, 0) != im.At(0, 0, 2) || one.At(0, 0, 2) != im.At(0, 0, 0) {
		t.Error("SwapRB did not exchange channels 0 and 2")
	}
	if one.At(0, 0, 1) != im.At(0, 0, 1) {
		t.Error("SwapRB disturbed the middle channel")
	}
}

func TestSwapRBGrayNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := randomImage(rng, 3, 3, 1)
	if !imagesEqual(im, SwapRB(im)) {
		t.Error("SwapRB should be a no-op on single-channel images")
	}
}

func TestToOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	im := randomImage(rng, 4, 4, 3)
	if !imagesEqual(ToOrder(im, RGB, RGB), im) {
		t.Error("same-order conversion changed pixels")
	}
	if !imagesEqual(ToOrder(im, RGB, BGR), SwapRB(im)) {
		t.Error("RGB->BGR should swap")
	}
	if RGB.String() != "RGB" || BGR.String() != "BGR" {
		t.Error("ChannelOrder.String")
	}
}

func TestRotateIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := randomImage(rng, 6, 4, 3)
	if !imagesEqual(Rotate(im, Rotate0), im) {
		t.Error("Rotate0 changed image")
	}
	r := Rotate(im, Rotate90)
	if r.W != im.H || r.H != im.W {
		t.Errorf("Rotate90 dims %dx%d", r.W, r.H)
	}
	if !imagesEqual(Rotate(Rotate(im, Rotate180), Rotate180), im) {
		t.Error("Rotate180 twice is not identity")
	}
	if !imagesEqual(Rotate(Rotate(im, Rotate90), Rotate270), im) {
		t.Error("rot90 then rot270 is not identity")
	}
}

// Property: four quarter turns return the original image.
func TestRotateFourTimesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := randomImage(rng, 1+rng.Intn(7), 1+rng.Intn(7), 3)
		r := im
		for i := 0; i < 4; i++ {
			r = Rotate(r, Rotate90)
		}
		return imagesEqual(im, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResizeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	im := randomImage(rng, 8, 8, 3)
	for _, k := range []ResizeKind{ResizeArea, ResizeBilinear, ResizeNearest} {
		if !imagesEqual(Resize(im, 8, 8, k), im) {
			t.Errorf("%v: identity resize changed pixels", k)
		}
	}
}

// Property: resizing a constant image yields a constant image for every
// filter.
func TestResizeConstantProperty(t *testing.T) {
	f := func(val uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		im := NewImage(4+rng.Intn(12), 4+rng.Intn(12), 3)
		for i := range im.Pix {
			im.Pix[i] = val
		}
		for _, k := range []ResizeKind{ResizeArea, ResizeBilinear, ResizeNearest} {
			out := Resize(im, 2+rng.Intn(10), 2+rng.Intn(10), k)
			for _, p := range out.Pix {
				if p != val {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Area averaging over an integer downsample factor preserves the mean
// exactly (up to rounding), the property that makes it the alias-free
// reference downsampler.
func TestAreaResizePreservesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	im := randomImage(rng, 32, 32, 1)
	out := Resize(im, 8, 8, ResizeArea)
	var inSum, outSum float64
	for _, p := range im.Pix {
		inSum += float64(p)
	}
	for _, p := range out.Pix {
		outSum += float64(p)
	}
	inMean := inSum / float64(len(im.Pix))
	outMean := outSum / float64(len(out.Pix))
	if math.Abs(inMean-outMean) > 1.0 {
		t.Errorf("area resize mean drift: %v -> %v", inMean, outMean)
	}
}

// Bilinear downsampling of a high-frequency checkerboard aliases badly while
// area averaging blends it to gray — the §4.3 resizing-bug mechanism.
func TestBilinearAliasesCheckerboard(t *testing.T) {
	im := NewImage(32, 32, 1)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if x%2 == 0 {
				im.Set(x, y, 0, 255)
			}
		}
	}
	// A non-integer downsample factor: bilinear sample points drift across
	// the stripe phase and alias, while area averaging stays at the mean.
	area := Resize(im, 9, 9, ResizeArea)
	bil := Resize(im, 9, 9, ResizeBilinear)
	// Area output stays close to the 127.5 stripe mean (the 3.56px window
	// covers one extra stripe at most); bilinear keeps near-extreme values.
	for _, p := range area.Pix {
		if p < 100 || p > 155 {
			t.Fatalf("area resize should blend stripes toward gray, got %d", p)
		}
	}
	var areaDev, bilDev float64
	for i := range area.Pix {
		areaDev += math.Abs(float64(area.Pix[i]) - 127.5)
		bilDev += math.Abs(float64(bil.Pix[i]) - 127.5)
	}
	if bilDev <= 1.5*areaDev {
		t.Errorf("expected bilinear to alias more: area=%v bilinear=%v", areaDev, bilDev)
	}
}

func TestResizeKindStringParse(t *testing.T) {
	for _, k := range []ResizeKind{ResizeArea, ResizeBilinear, ResizeNearest} {
		back, err := ParseResizeKind(k.String())
		if err != nil || back != k {
			t.Errorf("round trip %v: %v, %v", k, back, err)
		}
	}
	if _, err := ParseResizeKind("lanczos"); err == nil {
		t.Error("ParseResizeKind accepted unknown filter")
	}
}

func TestNormRangeApply(t *testing.T) {
	if v := NormSymmetric.Apply(0); v != -1 {
		t.Errorf("sym(0) = %v", v)
	}
	if v := NormSymmetric.Apply(255); v != 1 {
		t.Errorf("sym(255) = %v", v)
	}
	if v := NormUnit.Apply(255); v != 1 {
		t.Errorf("unit(255) = %v", v)
	}
	if v := NormRaw.Apply(200); v != 200 {
		t.Errorf("raw(200) = %v", v)
	}
}

func TestToTensorShapeAndValues(t *testing.T) {
	im := NewImage(3, 2, 3)
	im.Set(1, 0, 2, 255)
	tt := ToTensor(im, NormUnit)
	if !tensor.SameShape(tt.Shape, []int{1, 2, 3, 3}) {
		t.Fatalf("shape = %v", tt.Shape)
	}
	if got := tt.At(0, 0, 1, 2); got != 1 {
		t.Errorf("normalized value = %v", got)
	}
}

func TestFromToTensorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	im := randomImage(rng, 6, 5, 3)
	for _, nr := range []NormRange{NormSymmetric, NormUnit, NormRaw} {
		back := FromTensor(ToTensor(im, nr), nr)
		for i := range im.Pix {
			d := int(im.Pix[i]) - int(back.Pix[i])
			if d < -1 || d > 1 {
				t.Fatalf("%v round-trip diff %d at %d", nr, d, i)
			}
		}
	}
}

func TestToTensorU8(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	im := randomImage(rng, 4, 4, 3)
	tt := ToTensorU8(im)
	if !tensor.SameShape(tt.Shape, []int{1, 4, 4, 3}) {
		t.Fatalf("shape = %v", tt.Shape)
	}
	for i := range im.Pix {
		if tt.U[i] != im.Pix[i] {
			t.Fatal("ToTensorU8 changed pixel data")
		}
	}
}

func TestRotationMetadata(t *testing.T) {
	if Rotate90.Degrees() != 90 || Rotate270.Degrees() != 270 {
		t.Error("Degrees")
	}
	if Rotate90.String() != "rot90" || Rotate0.String() != "rot0" {
		t.Error("String")
	}
}
