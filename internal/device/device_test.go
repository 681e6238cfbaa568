package device

import (
	"testing"

	"mlexray/internal/graph"
	"mlexray/internal/ops"
)

func convCost() ops.Cost  { return ops.Cost{MACs: 100_000, Bytes: 50_000} }
func dconvCost() ops.Cost { return ops.Cost{MACs: 30_000, Bytes: 60_000} }

func TestProfileLookup(t *testing.T) {
	for _, name := range []string{"Pixel4", "Pixel4-GPU", "Pixel3", "Pixel3-GPU", "Emulator-x86"} {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("iPhone"); err == nil {
		t.Error("ByName accepted unknown profile")
	}
	if len(Profiles()) != 5 {
		t.Errorf("%d profiles", len(Profiles()))
	}
}

func TestTable4RatiosHold(t *testing.T) {
	p4 := Pixel4()
	lat := func(op graph.OpType, kind ops.ComputeKind, resolver string, c ops.Cost) float64 {
		return float64(p4.NodeLatency(op, kind, resolver, c))
	}
	// (a) quantized conv slower than float conv on the optimized path.
	if lat(graph.OpConv2D, ops.KindQuant, "optimized", convCost()) <= lat(graph.OpConv2D, ops.KindFloat, "optimized", convCost()) {
		t.Error("quant conv should be slower than float conv")
	}
	// (b) quantized depthwise faster than float depthwise.
	if lat(graph.OpDepthwiseConv2D, ops.KindQuant, "optimized", dconvCost()) >= lat(graph.OpDepthwiseConv2D, ops.KindFloat, "optimized", dconvCost()) {
		t.Error("quant depthwise should be faster than float depthwise")
	}
	// (c) reference kernels are orders of magnitude slower.
	ratio := lat(graph.OpConv2D, ops.KindQuant, "reference", convCost()) /
		lat(graph.OpConv2D, ops.KindQuant, "optimized", convCost())
	if ratio < 100 {
		t.Errorf("reference/optimized conv ratio = %.0f, want >= 100", ratio)
	}
	// (d) float depthwise is ~8x heavier per MAC than float conv.
	convPerMAC := lat(graph.OpConv2D, ops.KindFloat, "optimized", convCost()) / 100_000
	dconvPerMAC := lat(graph.OpDepthwiseConv2D, ops.KindFloat, "optimized", ops.Cost{MACs: 100_000}) / 100_000
	if dconvPerMAC < 4*convPerMAC {
		t.Errorf("depthwise per-MAC (%.2f) should dwarf conv per-MAC (%.2f)", dconvPerMAC, convPerMAC)
	}
}

func TestEmulatorShape(t *testing.T) {
	p4 := Pixel4()
	emu := EmulatorX86()
	c := convCost()
	convP4 := float64(p4.NodeLatency(graph.OpConv2D, ops.KindFloat, "optimized", c))
	convEmu := float64(emu.NodeLatency(graph.OpConv2D, ops.KindFloat, "optimized", c))
	if convEmu < 20*convP4 {
		t.Errorf("emulator conv should be tens of times slower (%.0f vs %.0f)", convEmu, convP4)
	}
	d := ops.Cost{MACs: 100_000}
	dcP4 := float64(p4.NodeLatency(graph.OpDepthwiseConv2D, ops.KindFloat, "optimized", d))
	dcEmu := float64(emu.NodeLatency(graph.OpDepthwiseConv2D, ops.KindFloat, "optimized", d))
	if dcEmu > 3*dcP4 {
		t.Errorf("emulator depthwise should be comparable (%.0f vs %.0f)", dcEmu, dcP4)
	}
}

func TestGPUAndPixel3Scaling(t *testing.T) {
	c := convCost()
	p4 := float64(Pixel4().NodeLatency(graph.OpConv2D, ops.KindFloat, "optimized", c))
	gpu := float64(Pixel4GPU().NodeLatency(graph.OpConv2D, ops.KindFloat, "optimized", c))
	if gpu >= p4 {
		t.Error("GPU should be faster than CPU on float conv")
	}
	p3 := float64(Pixel3().NodeLatency(graph.OpConv2D, ops.KindFloat, "optimized", c))
	if p3 <= p4 {
		t.Error("Pixel 3 should be slower than Pixel 4")
	}
}

func TestLoggingLatencyLinearInBytes(t *testing.T) {
	p := Pixel4()
	a := p.PerLayerLoggingLatency(1 << 20)
	b := p.PerLayerLoggingLatency(2 << 20)
	if b <= a {
		t.Error("logging latency should grow with bytes")
	}
	if p.String() != "Pixel4" {
		t.Error("String")
	}
}

func TestOrientationSensor(t *testing.T) {
	s := OrientationSensor{Degrees: 90}
	if s.Read() != 90 {
		t.Error("sensor read")
	}
}

// TestModeledThroughputOrdering pins the fleet-sharding weight: GPU
// profiles model more throughput than their CPU hosts, the Pixel 3 trails
// the Pixel 4, and the x86 emulator (no ARM conv paths) trails everything.
func TestModeledThroughputOrdering(t *testing.T) {
	p4, p3 := Pixel4().ModeledThroughput(), Pixel3().ModeledThroughput()
	gpu := Pixel4GPU().ModeledThroughput()
	emu := EmulatorX86().ModeledThroughput()
	if !(gpu > p4 && p4 > p3 && p3 > emu) {
		t.Errorf("throughput ordering gpu=%.2f p4=%.2f p3=%.2f emu=%.2f; want gpu > p4 > p3 > emu", gpu, p4, p3, emu)
	}
	if emu <= 0 {
		t.Errorf("emulator throughput %.3f must stay positive", emu)
	}
}

// TestBackendTermsSkipReferenceResolver: the kernel backend's cost terms
// move the optimized resolver's projection and leave the reference
// resolver's alone — its loop nests run the same on every backend.
func TestBackendTermsSkipReferenceResolver(t *testing.T) {
	p := Pixel4()
	plain := convCost()
	tiled := plain
	tiled.MACTimeFactor, tiled.PackBytes = 0.55, 10_000
	for _, kind := range []ops.ComputeKind{ops.KindFloat, ops.KindQuant} {
		if got, want := p.NodeLatency(graph.OpConv2D, kind, "reference", tiled),
			p.NodeLatency(graph.OpConv2D, kind, "reference", plain); got != want {
			t.Errorf("%v: reference-resolver latency %v follows the backend terms, want %v", kind, got, want)
		}
		if got, base := p.NodeLatency(graph.OpConv2D, kind, "optimized", tiled),
			p.NodeLatency(graph.OpConv2D, kind, "optimized", plain); got >= base {
			t.Errorf("%v: optimized-resolver latency %v ignores the backend terms (plain %v)", kind, got, base)
		}
	}
}
