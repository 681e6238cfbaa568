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
