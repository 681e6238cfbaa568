package pipeline

import (
	"fmt"

	"mlexray/internal/core"
	"mlexray/internal/device"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/interp"
	"mlexray/internal/ops"
	"mlexray/internal/tensor"
)

// Options configures a pipeline instance.
type Options struct {
	// Resolver selects the kernel set (optimized vs reference, historical
	// defects vs fixed). Defaults to the optimized historical resolver —
	// what a production app of the paper's era shipped.
	Resolver *ops.Resolver
	// Device attaches a latency model (nil = wall-clock only).
	Device *device.Profile
	// Monitor receives telemetry (nil = uninstrumented).
	Monitor *core.Monitor
	// Bug injects one deployment bug into preprocessing.
	Bug Bug
	// Orientation simulates the capture orientation sensor reading; only
	// meaningful alongside BugRotation.
	Orientation *device.OrientationSensor
	// Backend selects the kernel micro-kernel backend the optimized
	// resolver's conv/dense/depthwise kernels dispatch to (plan-time; the
	// zero value is ops.BackendTiled). Inert under the reference resolver,
	// whose kernels sit before the backend seam.
	Backend ops.Backend
}

func (o *Options) resolver() *ops.Resolver {
	if o.Resolver != nil {
		return o.Resolver
	}
	return ops.NewOptimized(ops.Historical())
}

// Classifier is an instrumented image-classification pipeline.
type Classifier struct {
	model   *graph.Model
	ip      *interp.Interpreter
	preproc ImagePreproc
	opts    Options
}

// NewClassifier builds a classification pipeline for the model. The
// preprocessing starts from the model's correct conventions with opts.Bug
// applied.
func NewClassifier(m *graph.Model, opts Options) (*Classifier, error) {
	if m.Meta.Task != "classification" {
		return nil, fmt.Errorf("pipeline: model %q is a %s model", m.Name, m.Meta.Task)
	}
	pp, err := CorrectImagePreproc(m.Meta)
	if err != nil {
		return nil, err
	}
	c := &Classifier{model: m, preproc: pp.WithBug(opts.Bug), opts: opts}
	c.ip, err = newInterp(m, &opts)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// interpOptions maps the pipeline options onto interpreter options, for the
// frame-at-a-time and the batched interpreter alike.
func (o *Options) interpOptions() []interp.Option {
	iopts := []interp.Option{interp.WithBackend(o.Backend)}
	if o.Monitor != nil {
		iopts = append(iopts, interp.WithHook(o.Monitor.LayerHook()))
	}
	if o.Device != nil {
		iopts = append(iopts, interp.WithLatencyModel(o.Device))
	}
	return iopts
}

func newInterp(m *graph.Model, opts *Options) (*interp.Interpreter, error) {
	return interp.New(m, opts.resolver(), opts.interpOptions()...)
}

// Clone builds an independent replica of the pipeline — same model, bug and
// device, but its own interpreter arena and the given monitor — so replicas
// can run frames concurrently. The model, resolver and const tensors are
// shared read-only.
func (c *Classifier) Clone(mon *core.Monitor) (*Classifier, error) {
	opts := c.opts
	opts.Monitor = mon
	return NewClassifier(c.model, opts)
}

// Interpreter exposes the underlying interpreter (for memory accounting).
func (c *Classifier) Interpreter() *interp.Interpreter { return c.ip }

// Preproc returns the active preprocessing configuration.
func (c *Classifier) Preproc() ImagePreproc { return c.preproc }

// Classify runs one frame through the instrumented pipeline and returns the
// predicted class and scores.
func (c *Classifier) Classify(im *imaging.Image) (int, *tensor.Tensor, error) {
	mon := c.opts.Monitor
	if mon != nil {
		mon.NextFrame()
		if c.opts.Orientation != nil {
			mon.LogSensor(core.KeySensorOrientation, c.opts.Orientation.Read(), "deg")
		}
	}
	in := PreprocessImage(im, c.model.Meta, c.preproc)
	if mon != nil {
		mon.LogTensor(core.KeyPreprocessOutput, in)
		mon.OnInferenceStart()
	}
	out, err := c.runModel(in)
	if err != nil {
		return 0, nil, err
	}
	if mon != nil {
		mon.OnInferenceStop(c.ip)
	}
	return out.ArgMax(), out, nil
}

func (c *Classifier) runModel(in *tensor.Tensor) (*tensor.Tensor, error) {
	return c.ip.Run(in)
}

// Detector is an instrumented object-detection pipeline (SSD-style models
// with class-score and box-offset outputs).
type Detector struct {
	model   *graph.Model
	ip      *interp.Interpreter
	preproc ImagePreproc
	opts    Options
}

// NewDetector builds a detection pipeline.
func NewDetector(m *graph.Model, opts Options) (*Detector, error) {
	if m.Meta.Task != "detection" {
		return nil, fmt.Errorf("pipeline: model %q is a %s model", m.Name, m.Meta.Task)
	}
	pp, err := CorrectImagePreproc(m.Meta)
	if err != nil {
		return nil, err
	}
	d := &Detector{model: m, preproc: pp.WithBug(opts.Bug), opts: opts}
	d.ip, err = newInterp(m, &opts)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Clone builds an independent replica with its own interpreter arena and the
// given monitor (see Classifier.Clone).
func (d *Detector) Clone(mon *core.Monitor) (*Detector, error) {
	opts := d.opts
	opts.Monitor = mon
	return NewDetector(d.model, opts)
}

// Detect runs one frame and returns raw class scores [A, C] and box offsets
// [A, 4]; decoding/NMS is the caller's postprocessing (models.DecodeDetections).
func (d *Detector) Detect(im *imaging.Image) (scores, boxes *tensor.Tensor, err error) {
	mon := d.opts.Monitor
	if mon != nil {
		mon.NextFrame()
	}
	in := PreprocessImage(im, d.model.Meta, d.preproc)
	if mon != nil {
		mon.LogTensor(core.KeyPreprocessOutput, in)
		mon.OnInferenceStart()
	}
	if err := d.ip.SetInput(0, in); err != nil {
		return nil, nil, err
	}
	if err := d.ip.Invoke(); err != nil {
		return nil, nil, err
	}
	if mon != nil {
		mon.OnInferenceStop(d.ip)
	}
	s, err := d.ip.Output(0)
	if err != nil {
		return nil, nil, err
	}
	b, err := d.ip.Output(1)
	if err != nil {
		return nil, nil, err
	}
	return s.Clone(), b.Clone(), nil
}

// Segmenter is an instrumented segmentation pipeline.
type Segmenter struct {
	model   *graph.Model
	ip      *interp.Interpreter
	preproc ImagePreproc
	opts    Options
}

// NewSegmenter builds a segmentation pipeline.
func NewSegmenter(m *graph.Model, opts Options) (*Segmenter, error) {
	if m.Meta.Task != "segmentation" {
		return nil, fmt.Errorf("pipeline: model %q is a %s model", m.Name, m.Meta.Task)
	}
	pp, err := CorrectImagePreproc(m.Meta)
	if err != nil {
		return nil, err
	}
	s := &Segmenter{model: m, preproc: pp.WithBug(opts.Bug), opts: opts}
	s.ip, err = newInterp(m, &opts)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Clone builds an independent replica with its own interpreter arena and the
// given monitor (see Classifier.Clone).
func (s *Segmenter) Clone(mon *core.Monitor) (*Segmenter, error) {
	opts := s.opts
	opts.Monitor = mon
	return NewSegmenter(s.model, opts)
}

// Segment returns the per-pixel argmax label map.
func (s *Segmenter) Segment(im *imaging.Image) ([]int32, error) {
	mon := s.opts.Monitor
	if mon != nil {
		mon.NextFrame()
	}
	in := PreprocessImage(im, s.model.Meta, s.preproc)
	if mon != nil {
		mon.LogTensor(core.KeyPreprocessOutput, in)
		mon.OnInferenceStart()
	}
	out, err := s.ip.Run(in)
	if err != nil {
		return nil, err
	}
	if mon != nil {
		mon.OnInferenceStop(s.ip)
	}
	// out is [1, h, w, C]: argmax over the class axis.
	h, w, c := out.Shape[1], out.Shape[2], out.Shape[3]
	labels := make([]int32, h*w)
	for i := 0; i < h*w; i++ {
		best := 0
		for cc := 1; cc < c; cc++ {
			if out.F[i*c+cc] > out.F[i*c+best] {
				best = cc
			}
		}
		labels[i] = int32(best)
	}
	return labels, nil
}

// SpeechRecognizer is an instrumented keyword-spotting pipeline.
type SpeechRecognizer struct {
	model   *graph.Model
	ip      *interp.Interpreter
	preproc SpeechPreproc
	opts    Options
}

// NewSpeechRecognizer builds a speech pipeline.
func NewSpeechRecognizer(m *graph.Model, opts Options) (*SpeechRecognizer, error) {
	if m.Meta.Task != "speech" {
		return nil, fmt.Errorf("pipeline: model %q is a %s model", m.Name, m.Meta.Task)
	}
	pp, err := CorrectSpeechPreproc(m.Meta)
	if err != nil {
		return nil, err
	}
	s := &SpeechRecognizer{model: m, preproc: pp.WithBug(opts.Bug), opts: opts}
	s.ip, err = newInterp(m, &opts)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Clone builds an independent replica with its own interpreter arena and the
// given monitor (see Classifier.Clone).
func (s *SpeechRecognizer) Clone(mon *core.Monitor) (*SpeechRecognizer, error) {
	opts := s.opts
	opts.Monitor = mon
	return NewSpeechRecognizer(s.model, opts)
}

// Recognize classifies one waveform.
func (s *SpeechRecognizer) Recognize(wave []float64) (int, *tensor.Tensor, error) {
	mon := s.opts.Monitor
	if mon != nil {
		mon.NextFrame()
	}
	in, err := PreprocessSpeech(wave, s.preproc)
	if err != nil {
		return 0, nil, err
	}
	if mon != nil {
		mon.LogTensor(core.KeyPreprocessOutput, in)
		mon.OnInferenceStart()
	}
	out, err := s.ip.Run(in)
	if err != nil {
		return 0, nil, err
	}
	if mon != nil {
		mon.OnInferenceStop(s.ip)
	}
	return out.ArgMax(), out, nil
}

// TextClassifier is an instrumented sentiment pipeline.
type TextClassifier struct {
	model *graph.Model
	ip    *interp.Interpreter
	opts  Options
	// tokenize maps raw text to ids; the BugLowercase variant folds case
	// first (the §A experiment). origTok keeps the unwrapped tokenizer so
	// Clone can rebuild without stacking the bug twice.
	tokenize func(string) []int32
	origTok  func(string) []int32
}

// NewTextClassifier builds a text pipeline. tokenizer maps text to fixed-
// length token ids (datasets.TokenizeText for the synthetic vocab).
func NewTextClassifier(m *graph.Model, tokenizer func(string) []int32, opts Options) (*TextClassifier, error) {
	if m.Meta.Task != "text" {
		return nil, fmt.Errorf("pipeline: model %q is a %s model", m.Name, m.Meta.Task)
	}
	t := &TextClassifier{model: m, opts: opts, tokenize: tokenizer, origTok: tokenizer}
	if opts.Bug == BugLowercase {
		inner := tokenizer
		t.tokenize = func(s string) []int32 { return inner(lowercase(s)) }
	}
	var err error
	t.ip, err = newInterp(m, &opts)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func lowercase(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// Clone builds an independent replica with its own interpreter arena and the
// given monitor (see Classifier.Clone).
func (t *TextClassifier) Clone(mon *core.Monitor) (*TextClassifier, error) {
	opts := t.opts
	opts.Monitor = mon
	return NewTextClassifier(t.model, t.origTok, opts)
}

// ClassifyText runs one review through the pipeline.
func (t *TextClassifier) ClassifyText(text string) (int, *tensor.Tensor, error) {
	mon := t.opts.Monitor
	if mon != nil {
		mon.NextFrame()
	}
	ids := t.tokenize(text)
	in := tensor.FromInt32(ids, 1, len(ids))
	if mon != nil {
		mon.LogTensor(core.KeyPreprocessOutput, in)
		mon.OnInferenceStart()
	}
	out, err := t.ip.Run(in)
	if err != nil {
		return 0, nil, err
	}
	if mon != nil {
		mon.OnInferenceStop(t.ip)
	}
	return out.ArgMax(), out, nil
}
