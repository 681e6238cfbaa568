package ops

import (
	"mlexray/internal/graph"
)

// Arena is the kernel scratch allocator: a set of typed slabs handed out
// bump-pointer style and reclaimed wholesale with Reset before every node
// executes. Kernels request transient buffers (im2col matrices, GEMM
// products, per-channel scale/shift tables, dequantization staging) through
// the Ctx instead of calling make per invoke, so a planned interpreter runs
// its entire hot loop without allocating.
//
// Two properties make this safe without per-kernel bookkeeping:
//
//   - Scratch is node-scoped. The interpreter resets the arena before each
//     kernel, so a request can never alias a buffer another node still needs.
//   - Growth never invalidates. When a request exceeds the current slab a
//     larger one replaces it; slices already handed out keep the old backing
//     array, which stays valid for the remainder of that node.
//
// Returned scratch is NOT zeroed — every kernel fully initializes what it
// requests (the same contract a fresh make only incidentally exceeds).
//
// The zero/nil Arena degrades to plain make calls, so kernels stay usable
// with hand-built Ctx values in tests and one-off tool code.
type Arena struct {
	f32 []float32
	f64 []float64
	i16 []int16
	idx []int

	nf32, nf64, ni16, nidx int
}

// NewArena returns an empty arena; Reserve or first use sizes the slabs.
func NewArena() *Arena { return &Arena{} }

// Reset reclaims all outstanding scratch. The interpreter calls this before
// every node, so slab capacity converges to the single largest node's need.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.nf32, a.nf64, a.ni16, a.nidx = 0, 0, 0, 0
}

// Reserve grows the slabs to at least the given element counts. The
// interpreter calls it at plan time with the per-node maxima from
// ScratchPlan, so even the first Invoke runs allocation-free.
func (a *Arena) Reserve(f32, f64, i16, idx int) {
	if a == nil {
		return
	}
	if f32 > len(a.f32) {
		a.f32 = make([]float32, f32)
	}
	if f64 > len(a.f64) {
		a.f64 = make([]float64, f64)
	}
	if i16 > len(a.i16) {
		a.i16 = make([]int16, i16)
	}
	if idx > len(a.idx) {
		a.idx = make([]int, idx)
	}
}

// F32 hands out n float32 of node-scoped scratch (uninitialized).
func (a *Arena) F32(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	if a.nf32+n > len(a.f32) {
		a.f32 = make([]float32, growSlab(len(a.f32), a.nf32+n))
		a.nf32 = 0
	}
	s := a.f32[a.nf32 : a.nf32+n : a.nf32+n]
	a.nf32 += n
	return s
}

// F64 hands out n float64 of node-scoped scratch (uninitialized).
func (a *Arena) F64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if a.nf64+n > len(a.f64) {
		a.f64 = make([]float64, growSlab(len(a.f64), a.nf64+n))
		a.nf64 = 0
	}
	s := a.f64[a.nf64 : a.nf64+n : a.nf64+n]
	a.nf64 += n
	return s
}

// I16 hands out n int16 of node-scoped scratch (uninitialized).
func (a *Arena) I16(n int) []int16 {
	if a == nil {
		return make([]int16, n)
	}
	if a.ni16+n > len(a.i16) {
		a.i16 = make([]int16, growSlab(len(a.i16), a.ni16+n))
		a.ni16 = 0
	}
	s := a.i16[a.ni16 : a.ni16+n : a.ni16+n]
	a.ni16 += n
	return s
}

// Idx hands out n ints of node-scoped scratch (uninitialized).
func (a *Arena) Idx(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	if a.nidx+n > len(a.idx) {
		a.idx = make([]int, growSlab(len(a.idx), a.nidx+n))
		a.nidx = 0
	}
	s := a.idx[a.nidx : a.nidx+n : a.nidx+n]
	a.nidx += n
	return s
}

// Bytes reports the arena's slab footprint, for memory accounting.
func (a *Arena) Bytes() int {
	if a == nil {
		return 0
	}
	return 4*len(a.f32) + 8*len(a.f64) + 2*len(a.i16) + 8*len(a.idx)
}

func growSlab(have, need int) int {
	if have*2 > need {
		return have * 2
	}
	return need
}

// ScratchPlan reports the scratch a node's kernel may request per invoke, in
// elements per slab type, for the given kernel backend. The interpreter
// reserves the per-node maximum at plan time — including the tiled backend's
// padded pack panels, which is what keeps steady-state Invoke at zero
// allocations. The numbers mirror the kernels' requests; a conservative
// overestimate (e.g. planning im2col space even under the reference
// resolver, which does not use it) only costs idle slab bytes, and an
// underestimate is still correct — the arena grows once at first use.
func ScratchPlan(n *graph.Node, kind ComputeKind, backend Backend, shapeOf func(id int) []int) (f32, f64, i16, idx int) {
	outShape := shapeOf(n.Outputs[0])
	switch n.Op {
	case graph.OpConv2D:
		w := shapeOf(n.Inputs[1])
		oc, kh, kw, ic := w[0], w[1], w[2], w[3]
		k := kh * kw * ic
		if kind == KindQuant {
			// The tiled lowering reuses one per-element im2col panel across
			// the batch loop, so only oh*ow rows are ever live, padded to the
			// 4-row register tile plus the AVX2 tile's slack element for an
			// odd k (quantLeftPanel). The reference backend runs the loop
			// nest, which needs no scratch.
			if backend == BackendTiled {
				m := outShape[1] * outShape[2]
				return 0, 0, padUp(m, 4)*k + k%2, 0
			}
			return 0, 0, 0, 0
		}
		// The float lowerings span the whole batch in one GEMM: n*oh*ow
		// rows. The tiled backend packs a padded left panel and fuses the
		// epilogue, so it needs no separate product buffer.
		m := outShape[0] * outShape[1] * outShape[2]
		if backend == BackendTiled {
			return padUp(m, 4) * k, 0, 0, 0
		}
		return m*k + m*oc, 0, 0, 0
	case graph.OpDense:
		if backend == BackendTiled {
			in := shapeOf(n.Inputs[0])
			batch := in[0]
			inC := 1
			for _, d := range in[1:] {
				inC *= d
			}
			// Padded left panel: float activations or zero-corrected int16.
			if kind == KindQuant {
				return 0, 0, padUp(batch, 4)*inC + inC%2, 0
			}
			return padUp(batch, 4) * inC, 0, 0, 0
		}
	case graph.OpBatchNorm:
		ch := outShape[len(outShape)-1]
		return 2 * ch, 0, 0, 0
	case graph.OpSelfAttention:
		x := shapeOf(n.Inputs[0])
		t, d := x[1], x[2]
		need := 4*t*d + t
		if kind == KindHybrid {
			// Four dequantized projection matrices staged alongside.
			need += 4 * d * d
		}
		return need, 0, 0, 0
	case graph.OpSoftmax:
		if kind == KindQuant {
			return 0, outShape[len(outShape)-1], 0, 0
		}
	case graph.OpPad:
		return 0, 0, 0, len(shapeOf(n.Inputs[0]))
	case graph.OpResizeBilinear:
		return 4, 0, 0, 4
	}
	return 0, 0, 0, 0
}
