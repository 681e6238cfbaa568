// Package tensor provides the dense n-dimensional array type used by every
// other module in this repository: the inference engine, the training
// substrate, the preprocessing libraries and the validation framework.
//
// Tensors are row-major. Convolutional data uses NHWC layout ([batch,
// height, width, channel]) to match the TensorFlow Lite convention the paper
// targets. Four element types are supported: float32 for reference and
// "mobile" float models, uint8 for quantized activations, int8 for quantized
// weights, and int32 for biases and integer inputs such as token ids.
package tensor

import (
	"fmt"
	"math"
)

// DType enumerates the element types a Tensor can hold.
type DType int

const (
	F32 DType = iota // float32
	U8               // uint8 (quantized activations)
	I8               // int8 (quantized weights)
	I32              // int32 (biases, token ids, labels)
)

// String returns the TFLite-style lowercase name of the dtype.
func (d DType) String() string {
	switch d {
	case F32:
		return "f32"
	case U8:
		return "u8"
	case I8:
		return "i8"
	case I32:
		return "i32"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Size returns the width of one element in bytes.
func (d DType) Size() int {
	switch d {
	case F32, I32:
		return 4
	default:
		return 1
	}
}

// ParseDType is the inverse of DType.String. It reports an error for
// unknown names so that log files with corrupted dtype fields fail loudly.
func ParseDType(s string) (DType, error) {
	switch s {
	case "f32":
		return F32, nil
	case "u8":
		return U8, nil
	case "i8":
		return I8, nil
	case "i32":
		return I32, nil
	}
	return F32, fmt.Errorf("tensor: unknown dtype %q", s)
}

// Tensor is a dense row-major n-dimensional array. Exactly one of the data
// slices is non-nil, selected by DType. The zero value is not usable; use
// New or one of the typed constructors.
type Tensor struct {
	DType DType
	Shape []int

	F []float32
	U []uint8
	I []int8
	X []int32
}

// NumElems returns the product of dims. An empty shape denotes a scalar and
// has one element.
func NumElems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// New allocates a zero-filled tensor of the given dtype and shape.
func New(dt DType, shape ...int) *Tensor {
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dim in shape %v", shape))
		}
	}
	t := &Tensor{DType: dt, Shape: append([]int(nil), shape...)}
	n := NumElems(shape)
	switch dt {
	case F32:
		t.F = make([]float32, n)
	case U8:
		t.U = make([]uint8, n)
	case I8:
		t.I = make([]int8, n)
	case I32:
		t.X = make([]int32, n)
	default:
		panic(fmt.Sprintf("tensor: unknown dtype %v", dt))
	}
	return t
}

// FromFloats wraps (does not copy) a float32 slice as a tensor. The slice
// length must match the shape.
func FromFloats(data []float32, shape ...int) *Tensor {
	if len(data) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: %d values cannot fill shape %v", len(data), shape))
	}
	return &Tensor{DType: F32, Shape: append([]int(nil), shape...), F: data}
}

// FromBytes wraps a uint8 slice as a tensor.
func FromBytes(data []uint8, shape ...int) *Tensor {
	if len(data) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: %d values cannot fill shape %v", len(data), shape))
	}
	return &Tensor{DType: U8, Shape: append([]int(nil), shape...), U: data}
}

// FromInt8 wraps an int8 slice as a tensor.
func FromInt8(data []int8, shape ...int) *Tensor {
	if len(data) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: %d values cannot fill shape %v", len(data), shape))
	}
	return &Tensor{DType: I8, Shape: append([]int(nil), shape...), I: data}
}

// FromInt32 wraps an int32 slice as a tensor.
func FromInt32(data []int32, shape ...int) *Tensor {
	if len(data) != NumElems(shape) {
		panic(fmt.Sprintf("tensor: %d values cannot fill shape %v", len(data), shape))
	}
	return &Tensor{DType: I32, Shape: append([]int(nil), shape...), X: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return NumElems(t.Shape) }

// Bytes returns the storage footprint of the element data in bytes.
func (t *Tensor) Bytes() int { return t.Len() * t.DType.Size() }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Dim returns dimension i, supporting negative indices from the end.
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.Shape)
	}
	return t.Shape[i]
}

// SameShape reports whether two shapes are identical.
func SameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{DType: t.DType, Shape: append([]int(nil), t.Shape...)}
	switch t.DType {
	case F32:
		c.F = append([]float32(nil), t.F...)
	case U8:
		c.U = append([]uint8(nil), t.U...)
	case I8:
		c.I = append([]int8(nil), t.I...)
	case I32:
		c.X = append([]int32(nil), t.X...)
	}
	return c
}

// Reshape returns a view sharing the same storage with a new shape. The
// element count must be preserved. One dimension may be -1, in which case it
// is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dims in Reshape")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || t.Len()%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim reshaping %v to %v", t.Shape, shape))
		}
		shape[infer] = t.Len() / known
	}
	if NumElems(shape) != t.Len() {
		panic(fmt.Sprintf("tensor: reshape %v to %v changes element count", t.Shape, shape))
	}
	return &Tensor{DType: t.DType, Shape: shape, F: t.F, U: t.U, I: t.I, X: t.X}
}

// At returns element value at the given multi-index as float64, regardless
// of dtype. Intended for tests and diagnostics, not hot loops.
func (t *Tensor) At(idx ...int) float64 {
	off := t.Offset(idx...)
	switch t.DType {
	case F32:
		return float64(t.F[off])
	case U8:
		return float64(t.U[off])
	case I8:
		return float64(t.I[off])
	case I32:
		return float64(t.X[off])
	}
	panic("tensor: bad dtype")
}

// SetAt stores a float64 value at the given multi-index, casting to the
// tensor's dtype. Intended for tests and diagnostics.
func (t *Tensor) SetAt(v float64, idx ...int) {
	off := t.Offset(idx...)
	switch t.DType {
	case F32:
		t.F[off] = float32(v)
	case U8:
		t.U[off] = uint8(v)
	case I8:
		t.I[off] = int8(v)
	case I32:
		t.X[off] = int32(v)
	}
}

// Offset converts a multi-index into a flat row-major offset, with bounds
// checking.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v (cast to the tensor's dtype).
func (t *Tensor) Fill(v float64) {
	switch t.DType {
	case F32:
		f := float32(v)
		for i := range t.F {
			t.F[i] = f
		}
	case U8:
		u := uint8(v)
		for i := range t.U {
			t.U[i] = u
		}
	case I8:
		s := int8(v)
		for i := range t.I {
			t.I[i] = s
		}
	case I32:
		x := int32(v)
		for i := range t.X {
			t.X[i] = x
		}
	}
}

// Zero resets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// CopyFrom copies element data from src, which must have the same dtype and
// element count.
func (t *Tensor) CopyFrom(src *Tensor) {
	if t.DType != src.DType {
		panic(fmt.Sprintf("tensor: CopyFrom dtype mismatch %v vs %v", t.DType, src.DType))
	}
	if t.Len() != src.Len() {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.Shape, src.Shape))
	}
	switch t.DType {
	case F32:
		copy(t.F, src.F)
	case U8:
		copy(t.U, src.U)
	case I8:
		copy(t.I, src.I)
	case I32:
		copy(t.X, src.X)
	}
}

// Floats returns the tensor contents widened to a fresh []float32 regardless
// of dtype. Quantized tensors are returned as their raw integer values (no
// dequantization; that is the caller's job, since scale/zero-point live in
// the graph, not the tensor).
func (t *Tensor) Floats() []float32 {
	out := make([]float32, t.Len())
	switch t.DType {
	case F32:
		copy(out, t.F)
	case U8:
		for i, v := range t.U {
			out[i] = float32(v)
		}
	case I8:
		for i, v := range t.I {
			out[i] = float32(v)
		}
	case I32:
		for i, v := range t.X {
			out[i] = float32(v)
		}
	}
	return out
}

// ArgMax returns the flat index of the maximum element. Ties resolve to the
// lowest index. Panics on empty tensors.
func (t *Tensor) ArgMax() int {
	if t.Len() == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best := 0
	bestV := t.flat(0)
	for i := 1; i < t.Len(); i++ {
		if v := t.flat(i); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

func (t *Tensor) flat(i int) float64 {
	switch t.DType {
	case F32:
		return float64(t.F[i])
	case U8:
		return float64(t.U[i])
	case I8:
		return float64(t.I[i])
	case I32:
		return float64(t.X[i])
	}
	panic("tensor: bad dtype")
}

// IsFinite reports whether every float element is finite. Non-float tensors
// are always finite.
func (t *Tensor) IsFinite() bool {
	if t.DType != F32 {
		return true
	}
	for _, v := range t.F {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// String renders a short human-readable summary, e.g. "f32[1 32 32 3]".
func (t *Tensor) String() string {
	return fmt.Sprintf("%s%v", t.DType, t.Shape)
}
