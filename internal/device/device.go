// Package device is the edge-hardware substrate: a first-order latency model
// standing in for the paper's Pixel 4 / Pixel 3 phones and the x86 Android
// emulator. Per-node latency is baseNs + nsPerMAC * MACs + nsPerByte * bytes,
// with nsPerMAC keyed by (kernel resolver, compute kind, op class) and
// calibrated so the Table 4 ratios hold: reference quantized kernels are
// orders of magnitude slower than optimized ones; quantized conv is slower
// than float conv on the optimized ARM path while quantized depthwise is
// faster; the x86 emulator is ~44x slower on float conv but comparable on
// depthwise (the ARM-specific optimizations don't transfer).
//
// The simulator also models instrumentation overhead (Table 2) and exposes a
// simulated orientation sensor.
package device

import (
	"fmt"
	"time"

	"mlexray/internal/graph"
	"mlexray/internal/ops"
)

// Profile models one device configuration.
type Profile struct {
	Name string
	// speed scales every cost (Pixel 3 ≈ 1.22x the Pixel 4's CPU times).
	speed float64
	// gpu selects the GPU delegate cost table.
	gpu bool
	// x86 selects the emulator cost table.
	x86 bool

	// Instrumentation overhead per frame (Table 2): stats-only logging.
	InstrLatencyPerFrame time.Duration
	InstrMemoryBytes     int
	// Per-layer capture overhead when running offline validation: cost per
	// logged byte (Table 3/5's multi-second logging passes).
	PerLayerLogNsPerByte float64
}

// Pixel4 returns the Pixel 4 CPU profile (4 threads, the paper's default).
func Pixel4() *Profile {
	return &Profile{
		Name: "Pixel4", speed: 1,
		InstrLatencyPerFrame: 1400 * time.Microsecond,
		InstrMemoryBytes:     3_700_000,
		PerLayerLogNsPerByte: 90,
	}
}

// Pixel4GPU returns the Pixel 4 with the Adreno 640 GPU delegate.
func Pixel4GPU() *Profile {
	p := Pixel4()
	p.Name = "Pixel4-GPU"
	p.gpu = true
	// GPU logging costs more per frame: tensor readback stalls the queue.
	p.InstrLatencyPerFrame = 2400 * time.Microsecond
	return p
}

// Pixel3 returns the Pixel 3 CPU profile.
func Pixel3() *Profile {
	p := Pixel4()
	p.Name = "Pixel3"
	p.speed = 1.22
	p.InstrMemoryBytes = 3_100_000
	p.InstrLatencyPerFrame = 1300 * time.Microsecond
	return p
}

// Pixel3GPU returns the Pixel 3 with the Adreno 630 GPU delegate.
func Pixel3GPU() *Profile {
	p := Pixel3()
	p.Name = "Pixel3-GPU"
	p.gpu = true
	p.speed = 1.7
	p.InstrLatencyPerFrame = 1600 * time.Microsecond
	return p
}

// EmulatorX86 returns the x86 Android-emulator profile (§4.5's last column).
func EmulatorX86() *Profile {
	p := Pixel4()
	p.Name = "Emulator-x86"
	p.x86 = true
	return p
}

// nsPerMAC returns the cost coefficient for one multiply-accumulate.
// Values are calibrated against Table 4's MobileNet-v2 totals.
func (p *Profile) nsPerMAC(op graph.OpType, kind ops.ComputeKind, resolver string) float64 {
	class := op.LayerClass()
	quant := kind == ops.KindQuant
	ref := resolver == "reference"

	if p.gpu {
		// The GPU delegate runs float graphs ~7.7x faster on conv-heavy
		// work and does not accelerate the reference resolver (it falls
		// back to CPU).
		if !ref {
			switch class {
			case "Conv":
				return 0.013
			case "D-Conv":
				return 0.06
			default:
				return 0.05
			}
		}
	}
	if p.x86 {
		// The emulator lacks the ARM NEON paths: float conv is ~44x slower,
		// depthwise comparable (it was memory-bound anyway), quantized
		// kernels fall back to scalar code.
		switch class {
		case "Conv":
			if quant {
				return 9.0
			}
			return 4.4
		case "D-Conv":
			if quant {
				return 2.2
			}
			return 1.55
		case "FC":
			return 1.0
		default:
			return 0.6
		}
	}
	// ARM CPU path.
	switch class {
	case "Conv":
		switch {
		case quant && ref:
			return 58.0 // reference quantized conv: naive integer loops
		case quant:
			return 0.14 // optimized quantized conv — slower than float (§4.5a)
		case ref:
			return 2.0
		default:
			return 0.1 // optimized float conv (GEMM)
		}
	case "D-Conv":
		switch {
		case quant && ref:
			return 37.0
		case quant:
			return 0.29 // quantized depthwise is faster than quant conv (§4.5b)
		case ref:
			return 8.0
		default:
			return 1.23 // float depthwise is memory-bound: ~8x the per-MAC cost of conv
		}
	case "FC":
		if quant && ref {
			return 8.0
		}
		return 1.0
	case "Mean":
		if quant && ref {
			return 4.0
		}
		return 0.9
	case "Add":
		if ref {
			return 12.0
		}
		if quant {
			return 1.0
		}
		return 0.2
	case "Softmax":
		return 1.2
	default:
		return 0.3
	}
}

// nsPerByte returns the data-movement coefficient (Pad, Reshape, Quantize).
func (p *Profile) nsPerByte(op graph.OpType, kind ops.ComputeKind, resolver string) float64 {
	class := op.LayerClass()
	ref := resolver == "reference"
	switch class {
	case "Pad":
		if ref {
			return 6.0
		}
		if kind == ops.KindQuant {
			return 1.9
		}
		return 0.16
	case "Quantize":
		return 0.5
	default:
		return 0.05
	}
}

// costScale maps the mini models onto full-size model cost: the zoo's
// MobileNet-v2-mini performs ~1/500th the MACs of the real MobileNet-v2, so
// all coefficients are scaled so the simulated totals land in the ranges the
// paper reports for the full models (Table 2/4). Only ratios between
// configurations carry meaning; this constant sets the absolute frame.
const costScale = 500.0

// NodeLatency implements interp.LatencyModel. The cost's backend terms
// refine the projection: the per-MAC coefficient is scaled by the kernel
// backend's TimeFactor and panel-packing traffic is billed at the
// data-movement rate, so switching -kernel changes modeled latency the same
// direction it changes measured latency. The reference resolver's loop nests
// sit before the backend seam, so its coefficients take no backend terms.
func (p *Profile) NodeLatency(op graph.OpType, kind ops.ComputeKind, resolver string, cost ops.Cost) time.Duration {
	base := 2500.0 // fixed dispatch overhead per node, ns
	factor, pack := cost.TimeFactor(), cost.PackBytes
	if resolver == "reference" {
		factor, pack = 1, 0
	}
	ns := base + costScale*(p.nsPerMAC(op, kind, resolver)*factor*float64(cost.MACs)+
		p.nsPerByte(op, kind, resolver)*float64(cost.Bytes+pack))
	return time.Duration(ns * p.speed)
}

// ModeledThroughput returns a relative frames-per-second weight for the
// profile — the fleet scheduler's Weighted shard policy sizes device shards
// with it. The weight derives from the latency model's dominant coefficient
// (optimized float conv — the evaluation's workloads are conv-heavy) and
// the profile's speed scale, so a GPU profile weighs several times a CPU
// profile and the x86 emulator a fraction of one. Only ratios between
// profiles carry meaning.
func (p *Profile) ModeledThroughput() float64 {
	conv := p.nsPerMAC(graph.OpConv2D, ops.KindFloat, "optimized")
	if conv <= 0 {
		conv = 0.1
	}
	return 1 / (conv * p.speed)
}

// PerLayerLoggingLatency models the cost of writing per-layer logs of the
// given size on-device (the dominant term of the Table 3/5 offline
// validation passes).
func (p *Profile) PerLayerLoggingLatency(logBytes int) time.Duration {
	return time.Duration(p.PerLayerLogNsPerByte * float64(logBytes) * p.speed)
}

func (p *Profile) String() string { return p.Name }

// OrientationSensor simulates the device orientation peripheral: it reports
// the capture rotation in degrees, the sensor telemetry the orientation
// assertion consumes.
type OrientationSensor struct {
	Degrees int
}

// Read returns the current orientation in degrees.
func (s *OrientationSensor) Read() float64 { return float64(s.Degrees) }

// Profiles returns all built-in device profiles.
func Profiles() []*Profile {
	return []*Profile{Pixel4(), Pixel4GPU(), Pixel3(), Pixel3GPU(), EmulatorX86()}
}

// ByName looks up a built-in profile.
func ByName(name string) (*Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("device: unknown profile %q", name)
}
