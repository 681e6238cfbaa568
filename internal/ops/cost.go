package ops

import (
	"mlexray/internal/graph"
)

// Cost is a first-order work estimate for one node, the input to the device
// latency model: multiply-accumulates for compute-bound ops and bytes
// touched for memory-bound ops, plus the active kernel backend's efficiency
// terms so modeled latency does not pretend every backend runs at the same
// constants.
type Cost struct {
	MACs  int64
	Bytes int64
	// PackBytes counts the panel-packing traffic the tiled backend adds per
	// invoke: the int8 path's zero-corrected int16 activation panel, written
	// and re-read. Zero for the float path (its operands are used in place
	// or go through the same im2col as the reference backend) and for
	// backends that do not pack.
	PackBytes int64
	// MACTimeFactor scales the device profile's per-MAC latency coefficient
	// for the active backend (reference > 1, tiled < 1). Zero means 1.0, the
	// unscaled coefficient.
	MACTimeFactor float64
}

// TimeFactor returns the backend MAC-time multiplier, defaulting to 1.
func (c Cost) TimeFactor() float64 {
	if c.MACTimeFactor == 0 {
		return 1
	}
	return c.MACTimeFactor
}

// Backend MAC-time factors for the kernel-family ops (Conv2D, Dense,
// DepthwiseConv2D), relative to the device profile's unscaled per-MAC
// coefficient. Calibrated against the BenchmarkInvokeGemm per-backend
// profiles on the bench host: the naive reference float dot loop runs a
// single dependency chain (the reference backend's quantized loop nests run
// at the unscaled coefficient, so no factor there); the tiled conv/dense
// path fuses the epilogue, skips im2col for pointwise and narrow-stem
// convolutions and runs the column-quad (1x4) register kernel over in-place
// row operands; the tiled depthwise kernels accumulate a block of channels
// in registers over one tap table where the reference loop nest re-tests
// every tap's bounds for every channel.
const (
	macFactorRefFloat     = 1.5
	macFactorTiledFloat   = 0.65
	macFactorTiledQuant   = 0.55
	macFactorTiledDWFloat = 0.7
	macFactorTiledDWQuant = 0.6
)

// EstimateCostBackend computes the cost of a node under a specific compute
// kind and kernel backend: MACs are exact for the convolution family, bytes
// a reasonable count elsewhere. Kind and backend only influence the
// kernel-family ops (Conv2D, Dense, DepthwiseConv2D): other nodes never
// reach the backend seam.
func EstimateCostBackend(n *graph.Node, kind ComputeKind, backend Backend, shapeOf func(id int) []int, elemSize func(id int) int) Cost {
	c := estimateBaseCost(n, shapeOf, elemSize)
	if n.Op == graph.OpDepthwiseConv2D {
		// The depthwise kernels never pack panels; only the tiled register
		// blocks change the per-MAC time.
		if backend == BackendTiled {
			if kind == KindQuant {
				c.MACTimeFactor = macFactorTiledDWQuant
			} else {
				c.MACTimeFactor = macFactorTiledDWFloat
			}
		}
		return c
	}
	switch n.Op {
	case graph.OpConv2D, graph.OpDense:
	default:
		return c
	}
	switch backend {
	case BackendReference:
		if kind != KindQuant {
			// The quantized reference dot loop runs at the unscaled coefficient.
			c.MACTimeFactor = macFactorRefFloat
		}
	case BackendTiled:
		if kind == KindQuant {
			c.MACTimeFactor = macFactorTiledQuant
			// Panel traffic, quantized path only: the zero-corrected int16
			// activation panel is written once and re-read once per invoke
			// (the pair-packed weight panels are built once per node and
			// amortize to nothing over a replay). The float path uses its
			// operands in place — or the same im2col the reference backend
			// pays — so it adds no packing bytes.
			if c.MACs > 0 {
				out := shapeOf(n.Outputs[0])
				oc := int64(out[len(out)-1])
				if oc > 0 {
					kRows := c.MACs / oc // m*k elements in the left panel
					c.PackBytes = 2 * kRows * 2
				}
			}
		} else {
			c.MACTimeFactor = macFactorTiledFloat
		}
	}
	return c
}

// estimateBaseCost is the backend-independent MAC/byte estimate.
func estimateBaseCost(n *graph.Node, shapeOf func(id int) []int, elemSize func(id int) int) Cost {
	elems := func(id int) int64 {
		v := int64(1)
		for _, d := range shapeOf(id) {
			v *= int64(d)
		}
		return v
	}
	var bytes int64
	for _, id := range n.Inputs {
		bytes += elems(id) * int64(elemSize(id))
	}
	for _, id := range n.Outputs {
		bytes += elems(id) * int64(elemSize(id))
	}
	c := Cost{Bytes: bytes}
	switch n.Op {
	case graph.OpConv2D:
		out := shapeOf(n.Outputs[0])
		w := shapeOf(n.Inputs[1])
		// N*OH*OW*outC * kh*kw*inC
		c.MACs = int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(out[3]) *
			int64(w[1]) * int64(w[2]) * int64(w[3])
	case graph.OpDepthwiseConv2D:
		out := shapeOf(n.Outputs[0])
		w := shapeOf(n.Inputs[1])
		c.MACs = int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(out[3]) *
			int64(w[1]) * int64(w[2])
	case graph.OpDense:
		out := shapeOf(n.Outputs[0])
		w := shapeOf(n.Inputs[1])
		c.MACs = int64(out[0]) * int64(w[0]) * int64(w[1])
	case graph.OpSelfAttention:
		in := shapeOf(n.Inputs[0])
		nb, t, d := int64(in[0]), int64(in[1]), int64(in[2])
		// 4 projections + 2 attention matmuls.
		c.MACs = nb * (4*t*d*d + 2*t*t*d)
	case graph.OpAvgPool2D, graph.OpMaxPool2D:
		out := shapeOf(n.Outputs[0])
		k := int64(max1(n.Attrs.KernelH)) * int64(max1(n.Attrs.KernelW))
		c.MACs = int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(out[3]) * k
	case graph.OpMean:
		c.MACs = elems(n.Inputs[0])
	case graph.OpBatchNorm, graph.OpLayerNorm, graph.OpAdd, graph.OpMul,
		graph.OpHardSwish, graph.OpHardSigmoid, graph.OpSigmoid, graph.OpSoftmax:
		c.MACs = elems(n.Outputs[0])
	case graph.OpEmbedding, graph.OpResizeBilinear:
		c.MACs = elems(n.Outputs[0])
	default:
		// Data-movement ops: Pad, Concat, Reshape, ReLU, Quantize, ...
		c.MACs = 0
	}
	return c
}
