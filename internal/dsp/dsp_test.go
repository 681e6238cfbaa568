package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"mlexray/internal/tensor"
)

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := FFT(make([]complex128, 6)); err == nil {
		t.Error("FFT accepted length 6")
	}
	if _, err := FFT(nil); err == nil {
		t.Error("FFT accepted empty input")
	}
}

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 8)
	x[0] = 1
	spec, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range spec {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 64
	const bin = 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*bin*float64(i)/n), 0)
	}
	spec, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	// A real cosine concentrates energy in bins +bin and n-bin, each n/2.
	for i, v := range spec {
		mag := cmplx.Abs(v)
		if i == bin || i == n-bin {
			if math.Abs(mag-n/2) > 1e-9 {
				t.Errorf("bin %d mag = %v, want %v", i, mag, float64(n)/2)
			}
		} else if mag > 1e-9 {
			t.Errorf("leakage in bin %d: %v", i, mag)
		}
	}
}

// Property: the inverse transform, conj(FFT(conj(X)))/N, gives x back.
func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(4)) // 8..64
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		spec, err := FFT(x)
		if err != nil {
			return false
		}
		for i, v := range spec {
			spec[i] = cmplx.Conj(v)
		}
		back, err := FFT(spec)
		if err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-cmplx.Conj(back[i])/complex(float64(n), 0)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Parseval — sum |x|^2 == (1/N) sum |X|^2.
func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 32
		x := make([]complex128, n)
		var timeE float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			timeE += real(x[i]) * real(x[i])
		}
		spec, err := FFT(x)
		if err != nil {
			return false
		}
		var freqE float64
		for _, v := range spec {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(timeE-freqE/n) < 1e-6*math.Max(1, timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: FFT is linear.
func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 16
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), 0)
			b[i] = complex(rng.NormFloat64(), 0)
			sum[i] = a[i] + 2*b[i]
		}
		fa, _ := FFT(a)
		fb, _ := FFT(b)
		fs, _ := FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+2*fb[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHannWindowShape(t *testing.T) {
	w := HannWindow(64)
	if w[0] > 1e-12 {
		t.Errorf("Hann(0) = %v", w[0])
	}
	if math.Abs(w[32]-1) > 1e-12 {
		t.Errorf("Hann(mid) = %v", w[32])
	}
	for _, v := range w {
		if v < 0 || v > 1 {
			t.Fatalf("window value %v outside [0,1]", v)
		}
	}
}

func TestSpectrogramShape(t *testing.T) {
	wave := SynthTone(512, []float64{0.1}, []float64{1}, 0)
	sp, err := Spectrogram(wave, SpectrogramConfig{FrameLen: 64, FrameHop: 32, Norm: SpecNormNone})
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := 1 + (512-64)/32
	if !tensor.SameShape(sp.Shape, []int{1, wantFrames, 33, 1}) {
		t.Errorf("shape = %v, want [1 %d 33 1]", sp.Shape, wantFrames)
	}
}

func TestSpectrogramTonePeaksAtRightBin(t *testing.T) {
	// 0.125 cycles/sample with a 64-sample frame lands in bin 8.
	wave := SynthTone(512, []float64{0.125}, []float64{1}, 0)
	sp, err := Spectrogram(wave, SpectrogramConfig{FrameLen: 64, FrameHop: 32, Norm: SpecNormNone})
	if err != nil {
		t.Fatal(err)
	}
	bins := 33
	frame := sp.F[5*bins : 6*bins] // a middle frame
	best := 0
	for i, v := range frame {
		if v > frame[best] {
			best = i
		}
	}
	if best != 8 {
		t.Errorf("peak bin = %d, want 8", best)
	}
}

func TestSpectrogramErrors(t *testing.T) {
	if _, err := Spectrogram(make([]float64, 10), SpectrogramConfig{FrameLen: 64, FrameHop: 32}); err == nil {
		t.Error("accepted waveform shorter than a frame")
	}
	if _, err := Spectrogram(make([]float64, 128), SpectrogramConfig{FrameLen: 60, FrameHop: 30}); err == nil {
		t.Error("accepted non-power-of-two frame")
	}
	if _, err := Spectrogram(make([]float64, 128), SpectrogramConfig{FrameLen: 64, FrameHop: 0}); err == nil {
		t.Error("accepted zero hop")
	}
}

func TestPerUtteranceNormalization(t *testing.T) {
	wave := SynthTone(512, []float64{0.07, 0.21}, []float64{3, 1}, 0.5)
	sp, err := Spectrogram(wave, SpectrogramConfig{FrameLen: 64, FrameHop: 32, Norm: SpecNormPerUtterance})
	if err != nil {
		t.Fatal(err)
	}
	s := tensor.ComputeStats(sp)
	if math.Abs(s.Mean) > 1e-4 {
		t.Errorf("per-utterance mean = %v, want ~0", s.Mean)
	}
	variance := s.RMS*s.RMS - s.Mean*s.Mean
	if math.Abs(variance-1) > 1e-3 {
		t.Errorf("per-utterance variance = %v, want ~1", variance)
	}
}

func TestNormConventionsDiffer(t *testing.T) {
	wave := SynthChirp(512, 0.05, 0.3, 1)
	a, _ := Spectrogram(wave, SpectrogramConfig{FrameLen: 64, FrameHop: 32, Norm: SpecNormLogGlobal})
	b, _ := Spectrogram(wave, SpectrogramConfig{FrameLen: 64, FrameHop: 32, Norm: SpecNormPerUtterance})
	rmse, err := tensor.RMSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rmse < 0.1 {
		t.Errorf("normalization conventions barely differ (rmse=%v); the Fig 4c bug would be invisible", rmse)
	}
}

func TestSpecNormString(t *testing.T) {
	if SpecNormLogGlobal.String() != "log-global" || SpecNormPerUtterance.String() != "per-utterance" || SpecNormNone.String() != "none" {
		t.Error("SpecNorm.String")
	}
}

func TestSynthChirpBounded(t *testing.T) {
	w := SynthChirp(256, 0.01, 0.4, 0.7)
	for _, v := range w {
		if math.Abs(v) > 0.7+1e-9 {
			t.Fatalf("chirp exceeded amplitude: %v", v)
		}
	}
}
