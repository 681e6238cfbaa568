// Package dsp is the audio-preprocessing substrate: FFT, windowing and
// log-spectrogram feature extraction. The paper's speech-recognition case
// study (§4.3, Figure 4c) preprocesses waveforms into spectrograms outside
// the model graph, which makes the feature-generation step — in particular
// the spectrogram normalization convention — a deployment-bug surface
// exactly like image preprocessing.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes the in-order radix-2 Cooley-Tukey FFT of x, whose length
// must be a power of two. The input is not modified.
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	out := make([]complex128, n)
	copy(out, x)
	fftInPlace(out)
	return out, nil
}

func fftInPlace(a []complex128) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		wl := cmplx.Rect(1, -2*math.Pi/float64(length))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := a[i+j+half] * w
				a[i+j] = u + v
				a[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// RFFTMagnitude returns the magnitude of the first n/2+1 FFT bins of a real
// signal, the usual spectrogram column.
func RFFTMagnitude(x []float64) ([]float64, error) {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	spec, err := FFT(c)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x)/2+1)
	for i := range out {
		out[i] = cmplx.Abs(spec[i])
	}
	return out, nil
}

// HannWindow returns the n-point periodic Hann window.
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n)))
	}
	return w
}
