package interp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mlexray/internal/graph"
	"mlexray/internal/ops"
	"mlexray/internal/tensor"
)

// buildCNN constructs a small float conv net: conv(relu) -> dw -> add
// (residual) -> mean -> dense -> softmax.
func buildCNN(t *testing.T, seed int64) *graph.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder("testcnn")
	in := b.Input("input", tensor.F32, 1, 8, 8, 3)

	w1 := tensor.New(tensor.F32, 8, 3, 3, 3)
	tensor.HeInit(rng, w1, 27)
	b1 := tensor.New(tensor.F32, 8)
	pt, pb := graph.SamePadding(8, 3, 1, 1)
	x := b.Node(graph.OpConv2D, "conv1",
		graph.Attrs{StrideH: 1, StrideW: 1, PadT: pt, PadB: pb, PadL: pt, PadR: pb, Activation: graph.ActReLU},
		in, b.Const("conv1/w", w1), b.Const("conv1/b", b1))

	wd := tensor.New(tensor.F32, 1, 3, 3, 8)
	tensor.HeInit(rng, wd, 9)
	bd := tensor.New(tensor.F32, 8)
	y := b.Node(graph.OpDepthwiseConv2D, "dw1",
		graph.Attrs{StrideH: 1, StrideW: 1, PadT: 1, PadB: 1, PadL: 1, PadR: 1, DepthMultiplier: 1, Activation: graph.ActReLU6},
		x, b.Const("dw1/w", wd), b.Const("dw1/b", bd))

	z := b.Node(graph.OpAdd, "res", graph.Attrs{}, x, y)
	g := b.Node(graph.OpMean, "gap", graph.Attrs{}, z)
	wf := tensor.New(tensor.F32, 5, 8)
	tensor.HeInit(rng, wf, 8)
	bf := tensor.New(tensor.F32, 5)
	logits := b.Node(graph.OpDense, "fc", graph.Attrs{}, g, b.Const("fc/w", wf), b.Const("fc/b", bf))
	b.RenameTensor(logits, "logits")
	out := b.Node(graph.OpSoftmax, "softmax", graph.Attrs{Axis: 1}, logits)
	b.Output(out)
	b.Meta(graph.Meta{Task: "classification", InputH: 8, InputW: 8, InputC: 3, NumClasses: 5})
	return b.MustFinish()
}

func TestInterpreterRunsAndIsDeterministic(t *testing.T) {
	m := buildCNN(t, 1)
	ip, err := New(m, ops.NewReference(ops.Fixed()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	in := tensor.New(tensor.F32, 1, 8, 8, 3)
	tensor.RandUniform(rng, in, -1, 1)
	out1, err := ip.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := ip.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := range out1.F {
		if out1.F[i] != out2.F[i] {
			t.Fatal("non-deterministic output")
		}
		sum += float64(out1.F[i])
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Errorf("softmax output sums to %v", sum)
	}
	if !out1.IsFinite() {
		t.Error("non-finite output")
	}
}

func TestRefVsOptResolversAgreeOnFloat(t *testing.T) {
	m := buildCNN(t, 3)
	ipRef, err := New(m, ops.NewReference(ops.Fixed()))
	if err != nil {
		t.Fatal(err)
	}
	ipOpt, err := New(m, ops.NewOptimized(ops.Historical()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		in := tensor.New(tensor.F32, 1, 8, 8, 3)
		tensor.RandUniform(rng, in, -1, 1)
		a, err := ipRef.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ipOpt.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		// Historical bugs only affect quantized kernels; float paths agree
		// to float tolerance.
		if !tensor.AllClose(a, b, 1e-4, 1e-5) {
			t.Fatalf("trial %d: resolver outputs diverge: %v vs %v", trial, a.F, b.F)
		}
	}
}

func TestHookSeesEveryNode(t *testing.T) {
	m := buildCNN(t, 5)
	var events []NodeEvent
	ip, err := New(m, ops.NewReference(ops.Fixed()), WithHook(func(ev NodeEvent) {
		events = append(events, ev)
	}))
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.F32, 1, 8, 8, 3)
	if _, err := ip.Run(in); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(m.Nodes) {
		t.Fatalf("hook saw %d events for %d nodes", len(events), len(m.Nodes))
	}
	for i, ev := range events {
		if ev.Index != i {
			t.Errorf("event %d has index %d", i, ev.Index)
		}
		if len(ev.Outputs) == 0 || ev.Outputs[0] == nil {
			t.Errorf("event %d missing outputs", i)
		}
	}
	// Conv node should have positive MACs.
	if events[0].Cost.MACs <= 0 {
		t.Error("conv cost not estimated")
	}
}

type fakeLatency struct{}

func (fakeLatency) NodeLatency(op graph.OpType, kind ops.ComputeKind, resolver string, cost ops.Cost) (d time.Duration) {
	return time.Duration(cost.MACs) // 1ns per MAC
}

func TestLatencyModelIntegration(t *testing.T) {
	m := buildCNN(t, 6)
	ip, err := New(m, ops.NewReference(ops.Fixed()), WithLatencyModel(fakeLatency{}))
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.F32, 1, 8, 8, 3)
	if _, err := ip.Run(in); err != nil {
		t.Fatal(err)
	}
	st := ip.LastInvokeStats()
	if st.Modeled <= 0 {
		t.Error("modeled latency not accumulated")
	}
	if st.Measured <= 0 {
		t.Error("measured latency not accumulated")
	}
}

func TestInputValidation(t *testing.T) {
	m := buildCNN(t, 7)
	ip, err := New(m, ops.NewReference(ops.Fixed()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.SetInput(0, tensor.New(tensor.U8, 1, 8, 8, 3)); err == nil {
		t.Error("accepted wrong dtype")
	}
	if err := ip.SetInput(0, tensor.New(tensor.F32, 1, 4, 4, 3)); err == nil {
		t.Error("accepted wrong shape")
	}
	if err := ip.SetInput(5, tensor.New(tensor.F32, 1)); err == nil {
		t.Error("accepted bad input index")
	}
	if _, err := ip.Output(3); err == nil {
		t.Error("accepted bad output index")
	}
	if _, err := ip.Tensor(-1); err == nil {
		t.Error("accepted bad tensor id")
	}
}

func TestUnsupportedOpFailsAtConstruction(t *testing.T) {
	b := graph.NewBuilder("bn")
	in := b.Input("in", tensor.F32, 1, 2, 2, 2)
	one := tensor.New(tensor.F32, 2)
	one.Fill(1)
	zero := tensor.New(tensor.F32, 2)
	x := b.Node(graph.OpBatchNorm, "bn", graph.Attrs{},
		in, b.Const("g", one), b.Const("b", zero), b.Const("m", zero.Clone()), b.Const("v", one.Clone()))
	b.Output(x)
	m := b.MustFinish()
	// Force a quantized compute kind with no registered kernel by marking
	// the input u8 — construction must fail, not Invoke.
	m.Tensors[in].DType = tensor.U8
	if _, err := New(m, ops.NewReference(ops.Fixed())); err == nil {
		t.Error("expected construction error for unsupported quantized batchnorm")
	}
}

func TestNamedTensorAccess(t *testing.T) {
	m := buildCNN(t, 8)
	ip, err := New(m, ops.NewReference(ops.Fixed()))
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.F32, 1, 8, 8, 3)
	in.Fill(0.5)
	if _, err := ip.Run(in); err != nil {
		t.Fatal(err)
	}
	id, err := m.TensorByName("logits")
	if err != nil {
		t.Fatal(err)
	}
	logits, err := ip.Tensor(id)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Len() != 5 {
		t.Errorf("logits len = %d", logits.Len())
	}
	if ip.ArenaBytes() <= 0 {
		t.Error("ArenaBytes")
	}
	if ip.Model() != m || ip.Resolver().Name() != "reference" {
		t.Error("accessors")
	}
}

// TestDefaultBackendIsTiled pins the kernel backend New plans every node
// with when no WithBackend option is given.
func TestDefaultBackendIsTiled(t *testing.T) {
	ip, err := New(buildCNN(t, 1), ops.NewOptimized(ops.Fixed()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ip.ctxs {
		if b := ip.ctxs[i].Backend; b != ops.BackendTiled {
			t.Errorf("node %d planned backend %s, want tiled", i, b)
		}
	}
}
