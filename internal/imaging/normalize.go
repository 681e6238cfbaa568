package imaging

import (
	"fmt"

	"mlexray/internal/tensor"
)

// NormRange describes the numeric range a model expects its float input in.
// The paper's "numerical conversion" bug class: the training framework
// converted uint8 pixels to, say, [-1, 1] deep inside its input pipeline,
// the app developer guesses [0, 1], the image merely looks washed out to the
// network, and accuracy silently drops (§2, §4.3).
type NormRange struct {
	Lo, Hi float64
}

// Common normalization conventions used by the model zoo (mirroring the
// paper's examples: MobileNet wants [-1,1], DenseNet wants [0,1]).
var (
	NormSymmetric = NormRange{-1, 1}
	NormUnit      = NormRange{0, 1}
	NormRaw       = NormRange{0, 255}
)

func (n NormRange) String() string { return fmt.Sprintf("[%g,%g]", n.Lo, n.Hi) }

// Apply maps a uint8 value into the range.
func (n NormRange) Apply(v uint8) float32 {
	return float32(n.Lo + (n.Hi-n.Lo)*float64(v)/255.0)
}

// ToTensor converts an image into a [1, H, W, C] float32 NHWC tensor with
// the given normalization. This is the numerical-conversion step of the
// preprocessing pipeline.
func ToTensor(im *Image, nr NormRange) *tensor.Tensor {
	t := tensor.New(tensor.F32, 1, im.H, im.W, im.C)
	FillTensor(t, im, nr)
	return t
}

// FillTensor is ToTensor into a caller-owned float32 tensor of im's element
// count, overwriting all of it. Each element is the value nr.Apply returns
// for its pixel, looked up in a table of the 256 of them.
func FillTensor(t *tensor.Tensor, im *Image, nr NormRange) {
	if t.DType != tensor.F32 || len(t.F) != len(im.Pix) {
		panic(fmt.Sprintf("imaging: FillTensor of %dx%dx%d image into %v %v", im.W, im.H, im.C, t.DType, t.Shape))
	}
	var lut [256]float32
	for v := range lut {
		lut[v] = nr.Apply(uint8(v))
	}
	for i, p := range im.Pix {
		t.F[i] = lut[p]
	}
}

// ToTensorU8 converts an image into a [1, H, W, C] uint8 tensor (the raw
// form quantized models with an in-graph Quantize node consume).
func ToTensorU8(im *Image) *tensor.Tensor {
	t := tensor.New(tensor.U8, 1, im.H, im.W, im.C)
	copy(t.U, im.Pix)
	return t
}

// FromTensor converts a [1, H, W, C] (or [H, W, C]) float tensor holding
// values in nr back into an 8-bit image, clamping out-of-range values. Used
// by assertion functions that need to compare preprocessing outputs in pixel
// space and by the data playback tooling.
func FromTensor(t *tensor.Tensor, nr NormRange) *Image {
	shape := t.Shape
	if len(shape) == 4 {
		if shape[0] != 1 {
			panic(fmt.Sprintf("imaging: FromTensor batch dim %d", shape[0]))
		}
		shape = shape[1:]
	}
	if len(shape) != 3 {
		panic(fmt.Sprintf("imaging: FromTensor rank %d", len(shape)))
	}
	h, w, c := shape[0], shape[1], shape[2]
	im := NewImage(w, h, c)
	scale := 255.0 / (nr.Hi - nr.Lo)
	for i := range im.Pix {
		im.Pix[i] = clamp8((float64(t.F[i]) - nr.Lo) * scale)
	}
	return im
}
