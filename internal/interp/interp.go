// Package interp executes graph models with a chosen op resolver — the
// TFLite-interpreter analogue. It provides the two capabilities ML-EXray's
// instrumentation layer relies on (§3.2): per-node hooks that observe every
// layer's output tensor, and per-node timing (both wall-clock measured and
// device-model projected).
//
// # Execution planning
//
// New resolves every kernel, allocates the tensor arena AND plans the whole
// dispatch up front: one persistent ops.Ctx per node (input/output tensors
// and quant params pre-resolved) plus a kernel scratch arena pre-sized from
// ops.ScratchPlan. Invoke therefore performs no allocation in steady state —
// kernels draw transient buffers (im2col matrices, per-channel tables,
// dequant staging) from the arena, which is bump-reset before every node.
//
// # Batched execution
//
// Batch (see batch.go) runs B frames per Invoke through a graph.Rebatch-ed
// clone of the model, amortizing per-node dispatch across the batch while
// replaying per-frame hook events from sliced output views, so per-frame
// telemetry is indistinguishable from sequential execution.
package interp

import (
	"fmt"
	"time"

	"mlexray/internal/graph"
	"mlexray/internal/ops"
	"mlexray/internal/quant"
	"mlexray/internal/tensor"
)

// NodeEvent is delivered to hooks after each node executes.
type NodeEvent struct {
	Index   int
	Node    *graph.Node
	Outputs []*tensor.Tensor
	// OutQuant holds the quantization params of each output (nil entries
	// for float tensors), letting observers dequantize captures so per-layer
	// logs are comparable across float and quantized model versions.
	OutQuant []*quant.Params
	Kind     ops.ComputeKind
	Cost     ops.Cost
	Measured time.Duration
	// Modeled is the device-model latency projection; zero when the
	// interpreter has no latency model attached.
	Modeled time.Duration
}

// NodeHook observes node completions. Hooks must not retain the output
// tensors without cloning: the interpreter reuses buffers across Invoke
// calls.
type NodeHook func(ev NodeEvent)

// LatencyModel projects a node's execution time on a simulated device.
type LatencyModel interface {
	NodeLatency(op graph.OpType, kind ops.ComputeKind, resolver string, cost ops.Cost) time.Duration
}

// Option configures an Interpreter.
type Option func(*Interpreter)

// WithHook attaches a per-node observation hook.
func WithHook(h NodeHook) Option { return func(ip *Interpreter) { ip.hook = h } }

// WithLatencyModel attaches a device latency model.
func WithLatencyModel(m LatencyModel) Option { return func(ip *Interpreter) { ip.latModel = m } }

// WithBackend selects the GEMM micro-kernel backend the optimized kernels
// dispatch to. It is a plan-time choice: the per-node contexts, cost
// estimates and scratch reservations are all derived from it in New. The
// default is ops.BackendTiled.
func WithBackend(b ops.Backend) Option { return func(ip *Interpreter) { ip.backend = b } }

// InvokeStats summarises one Invoke call.
type InvokeStats struct {
	Measured time.Duration
	Modeled  time.Duration
}

// Interpreter holds the planned execution state for one model instance.
type Interpreter struct {
	model    *graph.Model
	resolver *ops.Resolver
	tensors  []*tensor.Tensor
	kinds    []ops.ComputeKind
	kernels  []ops.Kernel
	costs    []ops.Cost
	// ctxs are the persistent per-node kernel contexts; building them once
	// at plan time is what makes Invoke allocation-free.
	ctxs  []ops.Ctx
	arena *ops.Arena
	// measured records the last Invoke's per-node wall-clock durations (the
	// batched executor reads these to attribute per-frame layer latency).
	measured []time.Duration
	hook     NodeHook
	latModel LatencyModel
	backend  ops.Backend
	last     InvokeStats
}

// New validates the model, resolves every kernel up front (so unsupported
// ops fail at construction, not mid-inference), allocates the tensor arena
// and plans the per-node execution contexts and kernel scratch arena.
func New(m *graph.Model, resolver *ops.Resolver, opts ...Option) (*Interpreter, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	ip := &Interpreter{
		model:    m,
		resolver: resolver,
		tensors:  make([]*tensor.Tensor, len(m.Tensors)),
		kinds:    make([]ops.ComputeKind, len(m.Nodes)),
		kernels:  make([]ops.Kernel, len(m.Nodes)),
		costs:    make([]ops.Cost, len(m.Nodes)),
		ctxs:     make([]ops.Ctx, len(m.Nodes)),
		measured: make([]time.Duration, len(m.Nodes)),
		arena:    ops.NewArena(),
	}
	for _, o := range opts {
		o(ip)
	}
	for id, info := range m.Tensors {
		if c, ok := m.Consts[id]; ok {
			ip.tensors[id] = c
			continue
		}
		ip.tensors[id] = tensor.New(info.DType, info.Shape...)
	}
	shapeOf := func(id int) []int { return m.Tensors[id].Shape }
	sizeOf := func(id int) int { return m.Tensors[id].DType.Size() }
	var maxF32, maxF64, maxI16, maxIdx int
	for i := range m.Nodes {
		n := &m.Nodes[i]
		kind := ops.KindOf(n, m.Tensors)
		kernel, err := resolver.Lookup(n.Op, kind)
		if err != nil {
			return nil, fmt.Errorf("interp: node %d (%s): %w", i, n.Name, err)
		}
		ip.kinds[i] = kind
		ip.kernels[i] = kernel
		ip.costs[i] = ops.EstimateCostBackend(n, kind, ip.backend, shapeOf, sizeOf)

		inputs := make([]*tensor.Tensor, len(n.Inputs))
		inQ := make([]*quant.Params, len(n.Inputs))
		for j, id := range n.Inputs {
			inputs[j] = ip.tensors[id]
			inQ[j] = m.Tensors[id].Quant
		}
		outputs := make([]*tensor.Tensor, len(n.Outputs))
		outQ := make([]*quant.Params, len(n.Outputs))
		for j, id := range n.Outputs {
			outputs[j] = ip.tensors[id]
			outQ[j] = m.Tensors[id].Quant
		}
		ip.ctxs[i] = ops.Ctx{Node: n, Inputs: inputs, Outputs: outputs, InQ: inQ, OutQ: outQ, Arena: ip.arena, Backend: ip.backend}

		// Scratch is node-scoped (the arena resets between nodes), so the
		// slabs only need to cover the hungriest single node.
		f32, f64, i16, idx := ops.ScratchPlan(n, kind, ip.backend, shapeOf)
		maxF32 = maxInt(maxF32, f32)
		maxF64 = maxInt(maxF64, f64)
		maxI16 = maxInt(maxI16, i16)
		maxIdx = maxInt(maxIdx, idx)
	}
	ip.arena.Reserve(maxF32, maxF64, maxI16, maxIdx)
	return ip, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Model returns the model being executed.
func (ip *Interpreter) Model() *graph.Model { return ip.model }

// Resolver returns the active resolver.
func (ip *Interpreter) Resolver() *ops.Resolver { return ip.resolver }

// SetInput copies t into model input slot i.
func (ip *Interpreter) SetInput(i int, t *tensor.Tensor) error {
	if i < 0 || i >= len(ip.model.Inputs) {
		return fmt.Errorf("interp: input %d of %d", i, len(ip.model.Inputs))
	}
	dst := ip.tensors[ip.model.Inputs[i]]
	if dst.DType != t.DType {
		return fmt.Errorf("interp: input %d dtype %v, model wants %v", i, t.DType, dst.DType)
	}
	if !tensor.SameShape(dst.Shape, t.Shape) {
		return fmt.Errorf("interp: input %d shape %v, model wants %v", i, t.Shape, dst.Shape)
	}
	dst.CopyFrom(t)
	return nil
}

// Invoke executes all nodes in order. In steady state it performs no heap
// allocation: contexts are pre-planned and kernel scratch comes from the
// pre-sized arena.
func (ip *Interpreter) Invoke() error {
	var stats InvokeStats
	for i := range ip.ctxs {
		kctx := &ip.ctxs[i]
		ip.arena.Reset()
		start := time.Now()
		if err := ip.kernels[i](kctx); err != nil {
			n := kctx.Node
			return fmt.Errorf("interp: node %d (%s %s): %w", i, n.Op, n.Name, err)
		}
		measured := time.Since(start)
		ip.measured[i] = measured
		var modeled time.Duration
		if ip.latModel != nil {
			modeled = ip.latModel.NodeLatency(kctx.Node.Op, ip.kinds[i], ip.resolver.Name(), ip.costs[i])
		}
		stats.Measured += measured
		stats.Modeled += modeled
		if ip.hook != nil {
			ip.hook(NodeEvent{
				Index: i, Node: kctx.Node, Outputs: kctx.Outputs, OutQuant: kctx.OutQ,
				Kind: ip.kinds[i], Cost: ip.costs[i], Measured: measured, Modeled: modeled,
			})
		}
	}
	ip.last = stats
	return nil
}

// LastInvokeStats returns timing totals of the most recent Invoke.
func (ip *Interpreter) LastInvokeStats() InvokeStats { return ip.last }

// Output returns the live tensor of model output slot i. Clone before
// mutating or retaining across Invoke calls.
func (ip *Interpreter) Output(i int) (*tensor.Tensor, error) {
	if i < 0 || i >= len(ip.model.Outputs) {
		return nil, fmt.Errorf("interp: output %d of %d", i, len(ip.model.Outputs))
	}
	return ip.tensors[ip.model.Outputs[i]], nil
}

// Tensor returns the live runtime tensor with the given table id.
func (ip *Interpreter) Tensor(id int) (*tensor.Tensor, error) {
	if id < 0 || id >= len(ip.tensors) {
		return nil, fmt.Errorf("interp: tensor %d of %d", id, len(ip.tensors))
	}
	return ip.tensors[id], nil
}

// ArenaBytes returns the activation memory footprint (all non-const runtime
// buffers), the interpreter-arena metric of the overhead tables.
func (ip *Interpreter) ArenaBytes() int { return ip.model.ActivationBytes() }

// ScratchBytes returns the kernel scratch arena's slab footprint.
func (ip *Interpreter) ScratchBytes() int { return ip.arena.Bytes() }

// Run is a convenience for single-input single-output models: set, invoke,
// return a clone of the output.
func (ip *Interpreter) Run(in *tensor.Tensor) (*tensor.Tensor, error) {
	if err := ip.SetInput(0, in); err != nil {
		return nil, err
	}
	if err := ip.Invoke(); err != nil {
		return nil, err
	}
	out, err := ip.Output(0)
	if err != nil {
		return nil, err
	}
	return out.Clone(), nil
}
