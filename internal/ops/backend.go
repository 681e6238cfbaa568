package ops

import "fmt"

// Backend selects the GEMM micro-kernel family the compute kernels lower
// through. It is orthogonal to the Resolver: the resolver picks the *op
// lowering* (reference loop nests vs im2col+GEMM, including the historical
// defects), while the backend picks the *inner GEMM kernel* the optimized
// lowering dispatches to. No kernel registered by NewReference reads the
// backend — its loop nests never reach a GEMM.
//
// The zero value is BackendTiled, the production family, so hand-built Ctx
// values and every caller that does not choose run the fast path.
type Backend int

const (
	// BackendTiled is the register-tiled kernel family. The float kernels run
	// bias-seeded accumulator tiles with the activation clamp fused into the
	// store: in Go a column-quad (1x4) GEMM tile over in-place row operands,
	// on an amd64 host with AVX2 a 4x8 assembly tile whose eight lanes are
	// eight output channels, over a [k][oc] weight panel packed once per node
	// (simd_amd64.s; the two are bit-identical, see DESIGN §10). The int8
	// path packs weights two columns to an int64 panel entry, once per node,
	// and runs a 4x2 tile of int64 pair accumulators — one 64-bit multiply
	// per two MACs, split back into the two exact int32 dot products before
	// the requantizing store. Integer addition is associative, so the
	// quantized path is bit-exact against the reference kernel. The float
	// path is contractually only validator-bounded against reference: the
	// kernel is free to reassociate the accumulation (the benign
	// float-discrepancy class the paper documents), so validators bound it
	// with agreement/nRMSE thresholds rather than equality.
	BackendTiled Backend = iota
	// BackendReference is the slow, obviously-correct anchor the tiled
	// kernels are raced and diffed against. Float Conv2D and Dense run the
	// naive single-column dot-product GEMM behind the same im2col lowering,
	// with a separate bias/activation epilogue; int8 Conv2D and Dense and
	// both depthwise kernels run the reference resolver's own loop nests.
	BackendReference
)

// String returns the -kernel flag spelling of the backend.
func (b Backend) String() string {
	switch b {
	case BackendTiled:
		return "tiled"
	case BackendReference:
		return "reference"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend parses a -kernel flag value: "tiled" or "reference". The
// empty string selects the default tiled backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "tiled":
		return BackendTiled, nil
	case "reference", "ref":
		return BackendReference, nil
	default:
		return BackendTiled, fmt.Errorf("ops: unknown kernel backend %q (want tiled or reference)", s)
	}
}

// Backends lists every selectable backend, anchor first.
func Backends() []Backend {
	return []Backend{BackendReference, BackendTiled}
}
