package replay

import _ "unsafe" // for go:linkname

// opsUseAVX2 is internal/ops's unexported selector between the AVX2 assembly
// tiles and the Go float kernels — what the package's CPUID probe found.
// Tests here flip it to hold whole models to "assembly == Go"; nothing but a
// test can, which is why this is a linkname in a _test file and not an
// exported switch.
//
//go:linkname opsUseAVX2 mlexray/internal/ops.useAVX2
var opsUseAVX2 bool
