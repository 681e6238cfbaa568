//go:build race

package mlexray_test

import _ "unsafe" // for go:linkname

// Under the race detector this package's tests run the Go float kernels. The
// detector instruments Go code only: every scalar kernel (Add, Pad, Mean)
// slows thirty-fold while the AVX2 assembly tiles do not slow at all, so in
// a wall-clock per-layer log the scalar layers become 8x-median latency
// stragglers — true of a -race binary, and nothing a deployment validation
// test should have to expect (TestFacadeCustomAssertion holds a clean run to
// no findings). The assembly itself is held to the Go kernels elsewhere, with
// and without -race (internal/ops TestFloatSIMDMatchesGo, internal/replay
// TestFloatLayersSIMDInvariant).
//
//go:linkname opsUseAVX2 mlexray/internal/ops.useAVX2
var opsUseAVX2 bool

func init() { opsUseAVX2 = false }
