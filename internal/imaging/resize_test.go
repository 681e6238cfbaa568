package imaging

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

var allResizeKinds = []ResizeKind{ResizeArea, ResizeBilinear, ResizeNearest}

func oracleResize(im *Image, w, h int, kind ResizeKind) *Image {
	switch kind {
	case ResizeArea:
		return oracleResizeArea(im, w, h)
	case ResizeBilinear:
		return oracleResizeBilinear(im, w, h)
	}
	return oracleResizeNearest(im, w, h)
}

// diffResize holds both product entry points to the oracle for one case: the
// allocating Resize, and rz resizing into dirty — an image of the target
// size still holding other data, as a pipeline's scratch image does — with
// whatever tables rz kept from its previous call.
func diffResize(t *testing.T, rz *Resizer, dirty, im *Image, kind ResizeKind) {
	t.Helper()
	want := oracleResize(im, dirty.W, dirty.H, kind)
	if got := Resize(im, dirty.W, dirty.H, kind); !imagesEqual(got, want) {
		t.Fatalf("Resize %dx%dx%d -> %dx%d %v differs from the oracle", im.W, im.H, im.C, dirty.W, dirty.H, kind)
	}
	rz.Resize(dirty, im, kind)
	if !imagesEqual(dirty, want) {
		t.Fatalf("Resizer.Resize %dx%dx%d -> %dx%d %v into a used image differs from the oracle", im.W, im.H, im.C, dirty.W, dirty.H, kind)
	}
}

// The planned kernels are byte-identical to the per-pixel kernels they
// replaced, over up-, down- and mixed scaling, exact-integer ratios, one and
// three channels, through one Resizer whose tables are rebuilt or reused as
// the sizes come.
func TestResizeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var rz Resizer
	run := func(w, h, c, tw, th int, kind ResizeKind) {
		dirty := randomImage(rng, tw, th, c)
		for rep := 0; rep < 2; rep++ { // the second frame reuses the tables
			diffResize(t, &rz, dirty, randomImage(rng, w, h, c), kind)
		}
	}
	for _, kind := range allResizeKinds {
		run(64, 64, 3, 28, 28, kind)
		run(64, 64, 3, 32, 32, kind)
		run(80, 48, 3, 28, 28, kind)
		run(7, 5, 1, 7, 5, kind) // same size: the copy path
	}
	for i := 0; i < 2400; i++ {
		c := 1
		if rng.Intn(2) == 0 {
			c = 3
		}
		run(1+rng.Intn(100), 1+rng.Intn(100), c, 1+rng.Intn(100), 1+rng.Intn(100), allResizeKinds[i%3])
	}
}

// FuzzResizeDifferential is the same differential on fuzzer-chosen sizes,
// channel counts, filters and pixels.
func FuzzResizeDifferential(f *testing.F) {
	f.Add(uint8(64), uint8(64), uint8(3), uint8(28), uint8(28), uint8(0), []byte{1, 2, 3, 250})
	f.Add(uint8(3), uint8(9), uint8(1), uint8(50), uint8(2), uint8(1), []byte{})
	f.Add(uint8(10), uint8(10), uint8(2), uint8(5), uint8(20), uint8(2), []byte{255, 0})
	f.Fuzz(func(t *testing.T, w, h, c, tw, th, kind uint8, pix []byte) {
		im := NewImage(1+int(w)%128, 1+int(h)%128, 1+int(c)%4)
		if len(pix) > 0 {
			for i := range im.Pix {
				im.Pix[i] = pix[i%len(pix)] + uint8(i/len(pix))
			}
		}
		dirty := NewImage(1+int(tw)%128, 1+int(th)%128, im.C)
		for i := range dirty.Pix {
			dirty.Pix[i] = 0xA5
		}
		diffResize(t, new(Resizer), dirty, im, allResizeKinds[int(kind)%3])
	})
}

// An empty source is refused with the same documented panic by every filter
// and both entry points, before any kernel indexes into it.
func TestResizeEmptySourcePanics(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {0, 0}} {
		im := NewImage(dims[0], dims[1], 3)
		want := fmt.Sprintf("imaging: resize of empty %dx%d image", dims[0], dims[1])
		for _, kind := range allResizeKinds {
			if got := panicOf(func() { Resize(im, 4, 4, kind) }); got != want {
				t.Errorf("Resize %v of %dx%d: panic %v, want %q", kind, dims[0], dims[1], got, want)
			}
			if got := panicOf(func() { new(Resizer).Resize(NewImage(4, 4, 3), im, kind) }); got != want {
				t.Errorf("Resizer.Resize %v of %dx%d: panic %v, want %q", kind, dims[0], dims[1], got, want)
			}
		}
	}
	if got := panicOf(func() { Resize(NewImage(4, 4, 3), 0, 4, ResizeArea) }); got != "imaging: resize to 0x4" {
		t.Errorf("empty target: panic %v", got)
	}
}

func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// ToTensor's table holds exactly NormRange.Apply: all 256 values, bit for
// bit, under the zoo's conventions and an arbitrary range.
func TestToTensorMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	im := NewImage(16, 16, 1)
	for i := range im.Pix {
		im.Pix[i] = uint8(i)
	}
	random := NormRange{Lo: rng.NormFloat64() * 3, Hi: rng.NormFloat64() * 100}
	for _, nr := range []NormRange{NormSymmetric, NormUnit, NormRaw, random} {
		tt := ToTensor(im, nr)
		for i, p := range im.Pix {
			if got, want := tt.F[i], nr.Apply(p); math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("%v: ToTensor(%d) = %v, Apply = %v", nr, p, got, want)
			}
		}
	}
}
