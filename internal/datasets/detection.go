package datasets

import (
	"math/rand"

	"mlexray/internal/imaging"
)

// Box is an axis-aligned box in normalized [0,1] image coordinates.
type Box struct {
	CY, CX, H, W float64
	Class        int // 1-based; 0 is background
}

// DetectionSample is one image with ground-truth boxes (the COCO stand-in).
type DetectionSample struct {
	Image *imaging.Image
	Boxes []Box
}

// DetectionNumClasses counts the classes: background (index 0), then
// red-square, green-disk and blue-diamond.
const DetectionNumClasses = 4

// DetectionImageSize is the raw capture resolution.
const DetectionImageSize = 48

// SynthCOCO generates n images each containing 1-3 coloured shapes with
// ground-truth boxes.
func SynthCOCO(seed int64, n int) []DetectionSample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]DetectionSample, n)
	for i := range out {
		out[i] = renderDetectionSample(rng)
	}
	return out
}

func renderDetectionSample(rng *rand.Rand) DetectionSample {
	const s = DetectionImageSize
	im := imaging.NewImage(s, s, 3)
	for i := range im.Pix {
		im.Pix[i] = noisy(rng, 110, 14)
	}
	count := 1 + rng.Intn(3)
	var boxes []Box
	type placed struct{ cx, cy, size int }
	var placedObjs []placed
	for o := 0; o < count; o++ {
		cls := 1 + rng.Intn(DetectionNumClasses-1)
		size := 10 + rng.Intn(8)
		// Retry placement so objects never overlap (occluded centres would
		// corrupt both training targets and the mAP ground truth).
		ok := false
		var cx, cy int
		for attempt := 0; attempt < 20 && !ok; attempt++ {
			cx = size/2 + 2 + rng.Intn(s-size-4)
			cy = size/2 + 2 + rng.Intn(s-size-4)
			ok = true
			for _, p := range placedObjs {
				if abs(cx-p.cx) < (size+p.size)/2+2 && abs(cy-p.cy) < (size+p.size)/2+2 {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		placedObjs = append(placedObjs, placed{cx, cy, size})
		drawObject(rng, im, cls, cx, cy, size)
		boxes = append(boxes, Box{
			CY:    float64(cy) / s,
			CX:    float64(cx) / s,
			H:     float64(size) / s,
			W:     float64(size) / s,
			Class: cls,
		})
	}
	return DetectionSample{Image: im, Boxes: boxes}
}

func drawObject(rng *rand.Rand, im *imaging.Image, cls, cx, cy, size int) {
	half := size / 2
	var r, g, b int
	switch cls {
	case 1:
		r, g, b = 220, 40, 40
	case 2:
		r, g, b = 40, 220, 40
	case 3:
		r, g, b = 40, 40, 220
	}
	for y := cy - half; y <= cy+half; y++ {
		for x := cx - half; x <= cx+half; x++ {
			if x < 0 || x >= im.W || y < 0 || y >= im.H {
				continue
			}
			dx, dy := x-cx, y-cy
			inside := false
			switch cls {
			case 1: // square
				inside = true
			case 2: // disk
				inside = dx*dx+dy*dy <= half*half
			case 3: // diamond
				inside = abs(dx)+abs(dy) <= half
			}
			if inside {
				im.Set(x, y, 0, noisy(rng, r, 10))
				im.Set(x, y, 1, noisy(rng, g, 10))
				im.Set(x, y, 2, noisy(rng, b, 10))
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// SegmentationSample is one image with a per-pixel label map at a reduced
// resolution (labels are [H/2, W/2], matching the segmentation head).
type SegmentationSample struct {
	Image  *imaging.Image
	Labels []int32 // row-major (H/2)*(W/2), values in [0, classes)
	LH, LW int
}

// SegmentationNumClasses counts segmentation classes (0 = background).
const SegmentationNumClasses = 3

// SegmentationImageSize is the raw capture resolution.
const SegmentationImageSize = 32

// SynthSegmentation generates n images with per-pixel ground truth: a red
// region (class 1) and a blue region (class 2) on background (class 0).
func SynthSegmentation(seed int64, n int) []SegmentationSample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]SegmentationSample, n)
	for i := range out {
		out[i] = renderSegSample(rng)
	}
	return out
}

func renderSegSample(rng *rand.Rand) SegmentationSample {
	const s = SegmentationImageSize
	im := imaging.NewImage(s, s, 3)
	full := make([]int32, s*s)
	for i := range im.Pix {
		im.Pix[i] = noisy(rng, 120, 12)
	}
	// Two non-class-0 regions: a red rectangle and a blue disk.
	rx := rng.Intn(s / 2)
	ry := rng.Intn(s / 2)
	rw := 8 + rng.Intn(8)
	rh := 8 + rng.Intn(8)
	for y := ry; y < ry+rh && y < s; y++ {
		for x := rx; x < rx+rw && x < s; x++ {
			im.Set(x, y, 0, noisy(rng, 210, 10))
			im.Set(x, y, 1, noisy(rng, 50, 10))
			im.Set(x, y, 2, noisy(rng, 50, 10))
			full[y*s+x] = 1
		}
	}
	cx := s/2 + rng.Intn(s/3)
	cy := s/2 + rng.Intn(s/3)
	r := 5 + rng.Intn(5)
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= r*r {
				im.Set(x, y, 0, noisy(rng, 50, 10))
				im.Set(x, y, 1, noisy(rng, 50, 10))
				im.Set(x, y, 2, noisy(rng, 210, 10))
				full[y*s+x] = 2
			}
		}
	}
	// Downsample labels 2x by majority (top-left sample is adequate for
	// synthetic regions).
	lh, lw := s/2, s/2
	labels := make([]int32, lh*lw)
	for y := 0; y < lh; y++ {
		for x := 0; x < lw; x++ {
			labels[y*lw+x] = full[(2*y)*s+2*x]
		}
	}
	return SegmentationSample{Image: im, Labels: labels, LH: lh, LW: lw}
}
