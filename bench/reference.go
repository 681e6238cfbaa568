package main

import (
	"strconv"
	"time"
)

// This host's speed moves by 1.3–1.5× for minutes at a time (README,
// "Sizing"), further than any bound a metric may have. Every time-based
// end-to-end metric is therefore scaled by how fast the host ran a fixed
// piece of reference work next to the timed work: the value reported is what
// the measurement would have read at the nominal host speed.

// referenceNominal is what referenceWork takes on the reference box (2-vCPU
// Xeon 2.1 GHz guest) when it is running fast. It only sets the scale: with
// it, the scaled metrics read like the unscaled ones on a quiet reference
// box.
const referenceNominal = 3600 * time.Microsecond

var ref = struct {
	x, w     []float32
	src, dst []byte
	out      []byte
}{
	x:   make([]float32, 1<<16),
	w:   make([]float32, 64),
	src: make([]byte, 4<<20),
	dst: make([]byte, 4<<20),
	out: make([]byte, 0, 1<<16),
}

// referenceWork does a fixed amount of work that calls nothing of the
// product, so no change to the product can move it, and returns how long it
// took. It mixes what the workloads spend their time on, in about equal
// parts: float multiply-adds in four independent chains (a convolution's
// inner loop), shortest-form float formatting (the JSONL encoder) and 4 MiB
// copies (payloads moving between buffers). The host's slow spells hit the
// first two by up to 1.6× and the copy hardly at all; the workloads sit between.
func referenceWork() time.Duration {
	start := time.Now()
	var sum float32
	for rep := 0; rep < 12; rep++ {
		for base := 0; base+64 <= len(ref.x); base += 16 {
			x := ref.x[base : base+64]
			var a0, a1, a2, a3 float32
			for j := 0; j < 64; j += 4 {
				a0 += x[j] * ref.w[j]
				a1 += x[j+1] * ref.w[j+1]
				a2 += x[j+2] * ref.w[j+2]
				a3 += x[j+3] * ref.w[j+3]
			}
			sum += a0 + a1 + a2 + a3
		}
	}
	ref.w[0] = sum * 1e-20
	for rep := 0; rep < 6; rep++ {
		out := ref.out[:0]
		for i := 0; i < 4096; i++ {
			out = strconv.AppendFloat(out, float64(float32(i)*0.37+float32(rep)), 'g', -1, 32)
			out = append(out, ',')
		}
	}
	for rep := 0; rep < 6; rep++ {
		copy(ref.dst, ref.src)
		ref.src[rep] = ref.dst[rep+1]
	}
	return time.Since(start)
}

// hostSpeed runs the reference work for about budget (once at least) and
// returns the host's speed relative to nominal: below 1 when it runs slow.
func hostSpeed(budget time.Duration) float64 {
	reps := max(1, int((budget+referenceNominal/2)/referenceNominal))
	var took time.Duration
	for i := 0; i < reps; i++ {
		took += referenceWork()
	}
	return float64(referenceNominal) * float64(reps) / float64(took)
}
