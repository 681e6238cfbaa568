package interp_test

import (
	"math/rand"
	"testing"

	"mlexray/internal/convert"
	"mlexray/internal/interp"
	"mlexray/internal/ops"
	"mlexray/internal/tensor"
)

// TestInvokeSteadyStateAllocationFreeInt8 is the full-integer leg of
// TestInvokeSteadyStateAllocationFree: the quantized CNN (Quantize, conv,
// depthwise, Add, Mean, dense, softmax, Dequantize) under the fixed and the
// historical optimized resolver. Everything the int8 kernels derive — the
// pair-packed weight panels, the padded bias, the Add tables, the
// requantization multipliers — is built by the first Invoke and cached on the
// node's Ctx, so every later Invoke allocates nothing.
func TestInvokeSteadyStateAllocationFreeInt8(t *testing.T) {
	mobile, err := convert.Optimize(interp.BuildCNN(t, 17))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	calib := make([]*tensor.Tensor, 4)
	for i := range calib {
		calib[i] = tensor.New(tensor.F32, 1, 8, 8, 3)
		tensor.RandUniform(rng, calib[i], -1, 1)
	}
	m, err := convert.Quantize(mobile, calib, convert.DefaultQuantOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]ops.Config{"fixed": ops.Fixed(), "historical": ops.Historical()} {
		ip, err := interp.New(m, ops.NewOptimized(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if err := ip.SetInput(0, calib[0]); err != nil {
			t.Fatal(err)
		}
		if err := ip.Invoke(); err != nil { // builds and caches the per-node plans
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := ip.Invoke(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s optimized resolver: steady-state int8 Invoke allocates %.1f objects/op, want 0", name, allocs)
		}
	}
}
