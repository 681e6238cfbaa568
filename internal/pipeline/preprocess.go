// Package pipeline implements the inference pipelines of the evaluation
// apps: sensor capture → preprocessing → model invocation → postprocessing,
// instrumented with the ML-EXray monitor. The preprocessing stage is
// configurable, which is where the paper's deployment-bug classes (§2) are
// injected; the *reference* pipeline for a model is simply the pipeline
// configured from the model's own Meta — the training conventions (§3.3).
package pipeline

import (
	"fmt"

	"mlexray/internal/dsp"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/tensor"
)

// Bug enumerates the injectable deployment bugs of Figure 3 / Figure 4.
type Bug string

const (
	BugNone          Bug = "none"
	BugResize        Bug = "resize"        // wrong resampling filter
	BugChannel       Bug = "channel"       // swapped channel order
	BugNormalization Bug = "normalization" // wrong numerical range
	BugRotation      Bug = "rotation"      // disoriented capture
	BugSpecNorm      Bug = "specnorm"      // wrong spectrogram normalization
	BugLowercase     Bug = "lowercase"     // case folding before tokenization
)

// AllImageBugs lists the image-pipeline bug classes in the paper's severity
// presentation order.
var AllImageBugs = []Bug{BugResize, BugChannel, BugNormalization, BugRotation}

// ImagePreproc describes the image preprocessing an app performs.
type ImagePreproc struct {
	Resize   imaging.ResizeKind
	Order    imaging.ChannelOrder // channel order fed to the model
	Norm     imaging.NormRange
	Rotation imaging.Rotation // capture orientation relative to training
}

// CorrectImagePreproc derives the correct preprocessing from the model's
// recorded training conventions.
func CorrectImagePreproc(meta graph.Meta) (ImagePreproc, error) {
	rk, err := imaging.ParseResizeKind(meta.Resize)
	if err != nil {
		return ImagePreproc{}, fmt.Errorf("pipeline: model meta: %w", err)
	}
	order := imaging.RGB
	if meta.ChannelOrder == "BGR" {
		order = imaging.BGR
	}
	return ImagePreproc{
		Resize: rk,
		Order:  order,
		Norm:   imaging.NormRange{Lo: meta.NormLo, Hi: meta.NormHi},
	}, nil
}

// WithBug returns the preprocessing with one deployment bug injected.
func (p ImagePreproc) WithBug(bug Bug) ImagePreproc {
	out := p
	switch bug {
	case BugNone:
	case BugResize:
		if p.Resize == imaging.ResizeArea {
			out.Resize = imaging.ResizeBilinear
		} else {
			out.Resize = imaging.ResizeArea
		}
	case BugChannel:
		if p.Order == imaging.RGB {
			out.Order = imaging.BGR
		} else {
			out.Order = imaging.RGB
		}
	case BugNormalization:
		if p.Norm.Lo == -1 {
			out.Norm = imaging.NormUnit
		} else {
			out.Norm = imaging.NormSymmetric
		}
	case BugRotation:
		out.Rotation = imaging.Rotate90
	}
	return out
}

// PreprocessImage runs the full image preprocessing: capture orientation,
// resize to the model input, channel arrangement, numerical conversion.
// The input image is RGB as produced by the dataset generators (i.e. the
// camera stack's extracted RGB); cfg.Order is what the app feeds the model.
// The returned tensor is freshly allocated and the caller's to keep; the
// pipelines run the same preprocessor into storage they reuse.
func PreprocessImage(im *imaging.Image, meta graph.Meta, cfg ImagePreproc) *tensor.Tensor {
	p := newPreprocessor(meta, cfg)
	return p.run(nil, im)
}

// preprocessor is the image preprocessing of one pipeline replica together
// with the scratch it runs in: the resize tables (rebuilt when a frame's
// source size differs from the last one's) and the resized image. In steady
// state a frame allocates nothing. The scratch is overwritten by the next
// frame, so nothing downstream may keep a reference to it or to the input
// tensor past the frame — and nothing does: Monitor.LogTensor copies through
// Record.EncodeTensor, and interp's SetInput/SetInputElem copy into the
// arena. Not safe for concurrent use; every replica owns one.
type preprocessor struct {
	w, h    int // model input size
	cfg     ImagePreproc
	rz      imaging.Resizer
	resized *imaging.Image
}

func newPreprocessor(meta graph.Meta, cfg ImagePreproc) preprocessor {
	return preprocessor{w: meta.InputW, h: meta.InputH, cfg: cfg}
}

// run preprocesses im into dst and returns it. A dst that is nil or was made
// for another channel count is replaced by a fresh [1, h, w, C] tensor, C
// being im's channel count whatever the model's: a mismatch is the
// interpreter's to report.
func (p *preprocessor) run(dst *tensor.Tensor, im *imaging.Image) *tensor.Tensor {
	if p.cfg.Rotation != imaging.Rotate0 {
		im = imaging.Rotate(im, p.cfg.Rotation)
	}
	if p.resized == nil || p.resized.C != im.C {
		p.resized = imaging.NewImage(p.w, p.h, im.C)
	}
	p.rz.Resize(p.resized, im, p.cfg.Resize)
	if p.cfg.Order == imaging.BGR {
		imaging.SwapRBInPlace(p.resized)
	}
	if dst == nil || dst.Shape[3] != im.C {
		dst = tensor.New(tensor.F32, 1, p.h, p.w, im.C)
	}
	imaging.FillTensor(dst, p.resized, p.cfg.Norm)
	return dst
}

// SpeechPreproc describes the audio feature extraction configuration.
type SpeechPreproc struct {
	Config dsp.SpectrogramConfig
}

// CorrectSpeechPreproc derives the spectrogram configuration from the
// model's recorded training convention.
func CorrectSpeechPreproc(meta graph.Meta) (SpeechPreproc, error) {
	cfg := dsp.DefaultSpectrogram
	switch meta.SpecNorm {
	case "log-global":
		cfg.Norm = dsp.SpecNormLogGlobal
	case "per-utterance":
		cfg.Norm = dsp.SpecNormPerUtterance
	case "none":
		cfg.Norm = dsp.SpecNormNone
	default:
		return SpeechPreproc{}, fmt.Errorf("pipeline: model meta has unknown spectrogram normalization %q", meta.SpecNorm)
	}
	return SpeechPreproc{Config: cfg}, nil
}

// WithBug injects the spectrogram-normalization mismatch of Figure 4c: the
// app uses the *other* training pipeline's convention.
func (p SpeechPreproc) WithBug(bug Bug) SpeechPreproc {
	out := p
	if bug == BugSpecNorm {
		if p.Config.Norm == dsp.SpecNormLogGlobal {
			out.Config.Norm = dsp.SpecNormPerUtterance
		} else {
			out.Config.Norm = dsp.SpecNormLogGlobal
		}
	}
	return out
}

// PreprocessSpeech converts a waveform to the model's spectrogram input.
func PreprocessSpeech(wave []float64, cfg SpeechPreproc) (*tensor.Tensor, error) {
	return dsp.Spectrogram(wave, cfg.Config)
}
