package graph

import (
	"fmt"

	"mlexray/internal/quant"
	"mlexray/internal/tensor"
)

// Builder constructs models incrementally with automatic shape inference.
// Methods panic on structural errors: graph construction is programmer
// input, not runtime data, so failing fast at build time is the correct
// behaviour (the zoo's unit tests exercise every architecture).
type Builder struct {
	m *Model
}

// NewBuilder starts a model in checkpoint format.
func NewBuilder(name string) *Builder {
	return &Builder{m: &Model{
		Name:   name,
		Format: FormatCheckpoint,
		Consts: make(map[int]*tensor.Tensor),
	}}
}

// Meta sets the model's deployment metadata.
func (b *Builder) Meta(meta Meta) *Builder {
	b.m.Meta = meta
	return b
}

// Input declares a model input tensor and returns its id.
func (b *Builder) Input(name string, dt tensor.DType, shape ...int) int {
	id := b.addTensor(name, dt, shape, false, nil)
	b.m.Inputs = append(b.m.Inputs, id)
	return id
}

// Const registers a constant (weight) tensor and returns its id.
func (b *Builder) Const(name string, t *tensor.Tensor) int {
	id := b.addTensor(name, t.DType, t.Shape, true, nil)
	b.m.Consts[id] = t
	return id
}

// Output marks a tensor as a model output.
func (b *Builder) Output(id int) {
	b.m.Outputs = append(b.m.Outputs, id)
}

// Node appends an operation, infers its output shape, allocates the output
// tensor entry and returns its id. The output dtype follows the first
// input's dtype unless the op dictates otherwise (Quantize/Dequantize).
func (b *Builder) Node(op OpType, name string, attrs Attrs, inputs ...int) int {
	inShapes := make([][]int, len(inputs))
	for i, id := range inputs {
		b.checkID(id)
		inShapes[i] = b.m.Tensors[id].Shape
	}
	outShape, err := InferShape(op, attrs, inShapes)
	if err != nil {
		panic(fmt.Sprintf("graph builder %q node %q: %v", b.m.Name, name, err))
	}
	dt := b.m.Tensors[inputs[0]].DType
	switch op {
	case OpQuantize:
		dt = tensor.U8
	case OpDequantize, OpEmbedding, OpSelfAttention:
		dt = tensor.F32
	}
	out := b.addTensor(name+":out", dt, outShape, false, nil)
	b.m.Nodes = append(b.m.Nodes, Node{
		Op:      op,
		Name:    name,
		Inputs:  append([]int(nil), inputs...),
		Outputs: []int{out},
		Attrs:   attrs,
	})
	return out
}

// RenameTensor overrides a tensor's name, letting model builders expose
// well-known tensors ("logits", "boxes") for the trainer and validator.
func (b *Builder) RenameTensor(id int, name string) {
	b.checkID(id)
	b.m.Tensors[id].Name = name
}

// Shape returns a tensor's inferred shape.
func (b *Builder) Shape(id int) []int {
	b.checkID(id)
	return b.m.Tensors[id].Shape
}

// Finish validates and returns the model.
func (b *Builder) Finish() (*Model, error) {
	if err := b.m.Validate(); err != nil {
		return nil, err
	}
	return b.m, nil
}

// MustFinish is Finish for model-zoo code paths where an invalid
// architecture is a programming error.
func (b *Builder) MustFinish() *Model {
	m, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return m
}

func (b *Builder) addTensor(name string, dt tensor.DType, shape []int, isConst bool, q *quant.Params) int {
	id := len(b.m.Tensors)
	b.m.Tensors = append(b.m.Tensors, TensorInfo{
		Name:  name,
		Shape: append([]int(nil), shape...),
		DType: dt,
		Quant: q,
		Const: isConst,
	})
	return id
}

func (b *Builder) checkID(id int) {
	if id < 0 || id >= len(b.m.Tensors) {
		panic(fmt.Sprintf("graph builder %q: tensor id %d out of range", b.m.Name, id))
	}
}
