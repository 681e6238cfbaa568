// Package ops implements the operation kernels of the inference runtime,
// organized exactly like TensorFlow Lite's kernel registry (the paper's
// register.h vs register_ref.h): a *reference* resolver with straightforward
// loop kernels, and an *optimized* resolver with im2col/GEMM kernels that is
// orders of magnitude faster on the device model but — faithfully to the
// paper's §4.4 findings — ships with a broken quantized depthwise
// convolution: its requantizing store shifts right logically where an
// arithmetic shift was needed, so every negative accumulator saturates. A
// second historical defect, a lost division in the long-window path of the
// quantized average pool, lives in the shared kernel both resolvers use,
// which is why MobileNet-v3-style models fail even under the reference
// resolver. Both defects are controlled by Config so the "after the fix"
// behaviour is testable.
package ops

import (
	"fmt"

	"mlexray/internal/graph"
	"mlexray/internal/quant"
	"mlexray/internal/tensor"
)

// Ctx is the execution context handed to a kernel: resolved input/output
// tensors (constants already materialized) and their quantization params
// (nil entries for float tensors).
//
// A planned interpreter builds one Ctx per node at construction time and
// reuses it for every Invoke, which enables the two zero-allocation
// mechanisms below; a Ctx built ad hoc (tests, tools) leaves both nil and
// kernels transparently fall back to allocating.
type Ctx struct {
	Node    *graph.Node
	Inputs  []*tensor.Tensor
	Outputs []*tensor.Tensor
	InQ     []*quant.Params
	OutQ    []*quant.Params

	// Arena supplies node-scoped scratch buffers (reset by the interpreter
	// before each kernel). Nil falls back to make.
	Arena *Arena

	// Backend selects the GEMM micro-kernel family the optimized lowerings
	// dispatch to. Set at plan time by the interpreter; the zero value is
	// BackendTiled, so hand-built Ctxs run the production kernels.
	Backend Backend

	// cache memoizes derived per-node state whose inputs never change across
	// invokes — requantization multipliers, lookup tables, requant closures.
	// Exactly one kernel owns a Ctx, so a single slot suffices.
	cache any
}

// cachedIn returns the kernel's memoized plan of type T, building it on the
// first invoke. Quantization parameters and node attributes are fixed for the
// lifetime of a planned Ctx, so anything derived from them is computed once.
func cachedIn[T any](c *Ctx, build func() (T, error)) (T, error) {
	if v, ok := c.cache.(T); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		var zero T
		return zero, err
	}
	c.cache = v
	return v, nil
}

// In returns input i, erroring rather than panicking so kernels can report
// malformed graphs cleanly.
func (c *Ctx) In(i int) (*tensor.Tensor, error) {
	if i >= len(c.Inputs) {
		return nil, fmt.Errorf("ops: %s needs input %d, has %d", c.Node.Op, i, len(c.Inputs))
	}
	return c.Inputs[i], nil
}

// OptionalIn returns input i or nil when absent (e.g. bias-less conv).
func (c *Ctx) OptionalIn(i int) *tensor.Tensor {
	if i >= len(c.Inputs) {
		return nil
	}
	return c.Inputs[i]
}

// Kernel executes one node.
type Kernel func(*Ctx) error

// ComputeKind classifies how a node computes, selecting between the float,
// full-integer and hybrid (int8 weights, float activations) kernel
// registrations.
type ComputeKind int

const (
	KindFloat ComputeKind = iota
	KindQuant
	KindHybrid
)

func (k ComputeKind) String() string {
	switch k {
	case KindFloat:
		return "float"
	case KindQuant:
		return "quant"
	case KindHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindOf derives the compute kind of a node from its tensor table entries.
func KindOf(n *graph.Node, tensors []graph.TensorInfo) ComputeKind {
	switch n.Op {
	case graph.OpQuantize, graph.OpDequantize:
		return KindQuant
	}
	hybrid := false
	for _, id := range n.Inputs {
		ti := tensors[id]
		if ti.DType == tensor.U8 {
			return KindQuant
		}
		if ti.Const && ti.DType == tensor.I8 {
			hybrid = true
		}
	}
	for _, id := range n.Outputs {
		if tensors[id].DType == tensor.U8 {
			return KindQuant
		}
	}
	if hybrid {
		return KindHybrid
	}
	return KindFloat
}

// Config toggles the historically buggy kernels. The zero value is the
// fully fixed runtime; Historical() reproduces the TFLite build the paper
// debugged.
type Config struct {
	// DepthwiseOverflowBug: the optimized quantized DepthwiseConv2D
	// requantizes with a logical right shift where an arithmetic one was
	// needed (quant.Multiplier.ApplyLogicalShiftBug), so every negative
	// accumulator comes out as a huge positive and saturates — the §4.4
	// defect that zeroes MobileNet-v2 accuracy under the optimized resolver
	// and shows up as an rMSE spike at the first depthwise layer (Figure 6,
	// left). The accumulation itself is the correct int32 one; the name is
	// the paper's "different overflow behavior" class, kept for its users.
	DepthwiseOverflowBug bool
	// AvgPoolSignBug: the quantized AveragePool2D kernel loses the division
	// by the window size in its long-window path and emits the clamped
	// window sum (avgPoolQuantBuggy). Both resolvers share this kernel,
	// which is why MobileNet-v3 (average pooling inside every squeeze-excite
	// block) gets 0% accuracy even with the reference resolver (Figure 6,
	// right).
	AvgPoolSignBug bool
}

// Historical returns the defect configuration of the runtime version the
// paper's users deployed.
func Historical() Config { return Config{DepthwiseOverflowBug: true, AvgPoolSignBug: true} }

// Fixed returns the configuration with all known kernel defects repaired.
func Fixed() Config { return Config{} }

type kernelKey struct {
	op   graph.OpType
	kind ComputeKind
}

// Resolver maps (op, compute kind) to a kernel, mirroring TFLite's
// OpResolver interface.
type Resolver struct {
	name    string
	kernels map[kernelKey]Kernel
}

// Name returns "optimized" or "reference".
func (r *Resolver) Name() string { return r.name }

// Lookup finds the kernel for an op/kind pair.
func (r *Resolver) Lookup(op graph.OpType, kind ComputeKind) (Kernel, error) {
	if k, ok := r.kernels[kernelKey{op, kind}]; ok {
		return k, nil
	}
	return nil, fmt.Errorf("ops: resolver %q has no %v kernel for %v", r.name, kind, op)
}

func (r *Resolver) register(op graph.OpType, kind ComputeKind, k Kernel) {
	r.kernels[kernelKey{op, kind}] = k
}

// NewReference builds the reference resolver: naive, easy-to-audit loops
// for everything (TFLite's register_ref.h analogue).
func NewReference(cfg Config) *Resolver {
	r := &Resolver{name: "reference", kernels: make(map[kernelKey]Kernel)}
	registerShared(r, cfg)
	r.register(graph.OpConv2D, KindFloat, convFloatRef)
	r.register(graph.OpDepthwiseConv2D, KindFloat, depthwiseFloatRef)
	r.register(graph.OpDense, KindFloat, denseFloatRef)
	r.register(graph.OpConv2D, KindQuant, convQuantRef)
	r.register(graph.OpDepthwiseConv2D, KindQuant, depthwiseQuantRef)
	r.register(graph.OpDense, KindQuant, denseQuantRef)
	return r
}

// NewOptimized builds the optimized resolver: im2col/GEMM compute kernels
// (TFLite's register.h analogue), plus — when cfg.DepthwiseOverflowBug is
// set — the historically broken quantized depthwise convolution.
func NewOptimized(cfg Config) *Resolver {
	r := &Resolver{name: "optimized", kernels: make(map[kernelKey]Kernel)}
	registerShared(r, cfg)
	r.register(graph.OpConv2D, KindFloat, convFloatOpt)
	r.register(graph.OpDepthwiseConv2D, KindFloat, depthwiseFloatOpt)
	r.register(graph.OpDense, KindFloat, denseFloatOpt)
	r.register(graph.OpConv2D, KindQuant, convQuantOpt)
	if cfg.DepthwiseOverflowBug {
		r.register(graph.OpDepthwiseConv2D, KindQuant, depthwiseQuantOptBuggy)
	} else {
		r.register(graph.OpDepthwiseConv2D, KindQuant, depthwiseQuantOpt)
	}
	r.register(graph.OpDense, KindQuant, denseQuantOpt)
	return r
}

// registerShared installs the kernels that both resolvers use verbatim.
func registerShared(r *Resolver, cfg Config) {
	float := map[graph.OpType]Kernel{
		graph.OpAvgPool2D:      avgPoolFloat,
		graph.OpMaxPool2D:      maxPoolFloat,
		graph.OpMean:           meanFloat,
		graph.OpPad:            padFloat,
		graph.OpAdd:            addFloat,
		graph.OpMul:            mulFloat,
		graph.OpConcat:         concatFloat,
		graph.OpReLU:           reluFloat,
		graph.OpReLU6:          relu6Float,
		graph.OpHardSwish:      hardSwishFloat,
		graph.OpHardSigmoid:    hardSigmoidFloat,
		graph.OpSigmoid:        sigmoidFloat,
		graph.OpSoftmax:        softmaxFloat,
		graph.OpBatchNorm:      batchNormFloat,
		graph.OpReshape:        reshapeAny,
		graph.OpLayerNorm:      layerNormFloat,
		graph.OpSelfAttention:  selfAttentionFloat,
		graph.OpEmbedding:      embeddingFloat,
		graph.OpResizeBilinear: resizeBilinearFloat,
	}
	for op, k := range float {
		r.register(op, KindFloat, k)
	}

	avgPool := avgPoolQuantCorrect
	if cfg.AvgPoolSignBug {
		avgPool = avgPoolQuantBuggy
	}
	quantKernels := map[graph.OpType]Kernel{
		graph.OpAvgPool2D:      avgPool,
		graph.OpMaxPool2D:      maxPoolQuant,
		graph.OpMean:           meanQuant,
		graph.OpPad:            padQuant,
		graph.OpAdd:            addQuant,
		graph.OpMul:            mulQuant,
		graph.OpConcat:         concatQuant,
		graph.OpReLU:           reluQuant,
		graph.OpReLU6:          relu6Quant,
		graph.OpHardSwish:      lutKernel(hardSwishF64),
		graph.OpHardSigmoid:    lutKernel(hardSigmoidF64),
		graph.OpSigmoid:        lutKernel(sigmoidF64),
		graph.OpSoftmax:        softmaxQuant,
		graph.OpReshape:        reshapeAny,
		graph.OpQuantize:       quantizeKernel,
		graph.OpDequantize:     dequantizeKernel,
		graph.OpResizeBilinear: resizeBilinearQuant,
	}
	for op, k := range quantKernels {
		r.register(op, KindQuant, k)
	}

	hybrid := map[graph.OpType]Kernel{
		graph.OpDense:         denseHybrid,
		graph.OpEmbedding:     embeddingHybrid,
		graph.OpSelfAttention: selfAttentionHybrid,
		graph.OpLayerNorm:     layerNormFloat,
		graph.OpReshape:       reshapeAny,
		graph.OpMean:          meanFloat,
		graph.OpSoftmax:       softmaxFloat,
		graph.OpAdd:           addFloat,
	}
	for op, k := range hybrid {
		r.register(op, KindHybrid, k)
	}
}
