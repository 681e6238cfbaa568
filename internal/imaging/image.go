// Package imaging is the image-preprocessing substrate for the edge and
// reference inference pipelines. It owns exactly the operations the paper
// identifies as error-prone during deployment (§2): channel extraction and
// ordering, resizing, numerical conversion/normalization, and orientation.
//
// Images are interleaved HWC uint8, the layout camera stacks hand to
// applications. The package provides both correct implementations and the
// building blocks from which an edge pipeline can be (mis)configured, e.g.
// bilinear resampling where the training pipeline used area averaging.
package imaging

import "fmt"

// Image is an interleaved 8-bit image with C channels (C is 1 or 3
// everywhere in this repository).
type Image struct {
	W, H, C int
	Pix     []uint8 // len = W*H*C, row-major, interleaved channels
}

// NewImage allocates a zeroed image.
func NewImage(w, h, c int) *Image {
	if w < 0 || h < 0 || c <= 0 {
		panic(fmt.Sprintf("imaging: bad dims %dx%dx%d", w, h, c))
	}
	return &Image{W: w, H: h, C: c, Pix: make([]uint8, w*h*c)}
}

// At returns channel ch of pixel (x, y).
func (im *Image) At(x, y, ch int) uint8 {
	return im.Pix[(y*im.W+x)*im.C+ch]
}

// Set stores channel ch of pixel (x, y).
func (im *Image) Set(x, y, ch int, v uint8) {
	im.Pix[(y*im.W+x)*im.C+ch] = v
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	c := &Image{W: im.W, H: im.H, C: im.C, Pix: make([]uint8, len(im.Pix))}
	copy(c.Pix, im.Pix)
	return c
}

// ChannelOrder names how colour channels are interleaved in an image or
// expected by a model. Mixing these up is the paper's "channel extraction"
// bug class: it raises no runtime error but silently degrades accuracy.
type ChannelOrder int

const (
	RGB ChannelOrder = iota
	BGR
)

func (c ChannelOrder) String() string {
	if c == BGR {
		return "BGR"
	}
	return "RGB"
}

// SwapRB returns a copy with the first and third channels exchanged
// (RGB<->BGR). Single-channel images are returned unchanged (copied).
func SwapRB(im *Image) *Image {
	out := im.Clone()
	SwapRBInPlace(out)
	return out
}

// SwapRBInPlace is SwapRB on the image itself.
func SwapRBInPlace(im *Image) {
	if im.C < 3 {
		return
	}
	for i := 0; i < len(im.Pix); i += im.C {
		im.Pix[i], im.Pix[i+2] = im.Pix[i+2], im.Pix[i]
	}
}

// ToOrder converts an image known to be in `from` order into `to` order.
func ToOrder(im *Image, from, to ChannelOrder) *Image {
	if from == to {
		return im.Clone()
	}
	return SwapRB(im)
}

// YUVToRGB converts a 3-channel image holding BT.601 full-range YUV (as
// produced by phone camera stacks) into RGB. This models the channel
// extraction step an Android app performs on camera buffers; getting the
// coefficients or the order wrong is a real-world bug the framework's
// channel assertion catches.
func YUVToRGB(im *Image) *Image {
	if im.C != 3 {
		panic("imaging: YUVToRGB needs 3 channels")
	}
	out := NewImage(im.W, im.H, 3)
	for i := 0; i < len(im.Pix); i += 3 {
		y := float64(im.Pix[i])
		u := float64(im.Pix[i+1]) - 128
		v := float64(im.Pix[i+2]) - 128
		out.Pix[i] = clamp8(y + 1.402*v)
		out.Pix[i+1] = clamp8(y - 0.344136*u - 0.714136*v)
		out.Pix[i+2] = clamp8(y + 1.772*u)
	}
	return out
}

// RGBToYUV is the inverse conversion, used by the dataset generators to
// emulate sensor output and by round-trip tests.
func RGBToYUV(im *Image) *Image {
	if im.C != 3 {
		panic("imaging: RGBToYUV needs 3 channels")
	}
	out := NewImage(im.W, im.H, 3)
	for i := 0; i < len(im.Pix); i += 3 {
		r := float64(im.Pix[i])
		g := float64(im.Pix[i+1])
		b := float64(im.Pix[i+2])
		out.Pix[i] = clamp8(0.299*r + 0.587*g + 0.114*b)
		out.Pix[i+1] = clamp8(-0.168736*r - 0.331264*g + 0.5*b + 128)
		out.Pix[i+2] = clamp8(0.5*r - 0.418688*g - 0.081312*b + 128)
	}
	return out
}

func clamp8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// Rotation is a quarter-turn applied to an image. Edge devices capture in
// whatever orientation the user holds them; training data is always upright.
type Rotation int

const (
	Rotate0 Rotation = iota
	Rotate90
	Rotate180
	Rotate270
)

func (r Rotation) String() string {
	switch r {
	case Rotate90:
		return "rot90"
	case Rotate180:
		return "rot180"
	case Rotate270:
		return "rot270"
	default:
		return "rot0"
	}
}

// Degrees returns the rotation in degrees, the unit the orientation sensor
// telemetry records report.
func (r Rotation) Degrees() int { return int(r) * 90 }

// Rotate returns a rotated copy (clockwise quarter turns).
func Rotate(im *Image, r Rotation) *Image {
	switch r {
	case Rotate0:
		return im.Clone()
	case Rotate180:
		out := NewImage(im.W, im.H, im.C)
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				for ch := 0; ch < im.C; ch++ {
					out.Set(im.W-1-x, im.H-1-y, ch, im.At(x, y, ch))
				}
			}
		}
		return out
	case Rotate90:
		out := NewImage(im.H, im.W, im.C)
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				for ch := 0; ch < im.C; ch++ {
					out.Set(im.H-1-y, x, ch, im.At(x, y, ch))
				}
			}
		}
		return out
	case Rotate270:
		out := NewImage(im.H, im.W, im.C)
		for y := 0; y < im.H; y++ {
			for x := 0; x < im.W; x++ {
				for ch := 0; ch < im.C; ch++ {
					out.Set(y, im.W-1-x, ch, im.At(x, y, ch))
				}
			}
		}
		return out
	}
	panic("imaging: bad rotation")
}

// FlipH returns a horizontally mirrored copy.
func FlipH(im *Image) *Image {
	out := NewImage(im.W, im.H, im.C)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			for ch := 0; ch < im.C; ch++ {
				out.Set(im.W-1-x, y, ch, im.At(x, y, ch))
			}
		}
	}
	return out
}

// FlipV returns a vertically mirrored copy.
func FlipV(im *Image) *Image {
	out := NewImage(im.W, im.H, im.C)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			for ch := 0; ch < im.C; ch++ {
				out.Set(x, im.H-1-y, ch, im.At(x, y, ch))
			}
		}
	}
	return out
}

// CenterCrop returns the centred w×h sub-image. Panics if the crop exceeds
// the source.
func CenterCrop(im *Image, w, h int) *Image {
	if w > im.W || h > im.H {
		panic(fmt.Sprintf("imaging: crop %dx%d exceeds %dx%d", w, h, im.W, im.H))
	}
	x0 := (im.W - w) / 2
	y0 := (im.H - h) / 2
	out := NewImage(w, h, im.C)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for ch := 0; ch < im.C; ch++ {
				out.Set(x, y, ch, im.At(x0+x, y0+y, ch))
			}
		}
	}
	return out
}
