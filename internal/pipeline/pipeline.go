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

// checkTask rejects a model built for another task than the pipeline's.
func checkTask(m *graph.Model, task string) error {
	if m.Meta.Task != task {
		return fmt.Errorf("pipeline: model %q is a %s model", m.Name, m.Meta.Task)
	}
	return nil
}

// frame is what the five frame-at-a-time pipelines share: the model, its
// interpreter, and the instrumented skeleton of one inference —
//
//	begin → (the pipeline's own preprocessing) → invoke → output
//
// which logs, in this order, the frame advance, the orientation sensor
// reading (when a sensor is attached), the preprocessed input, the per-layer
// events and the latency metrics and model output of OnInferenceStop. The
// batched pipelines (batch.go) emit the same records per element.
type frame struct {
	model *graph.Model
	ip    *interp.Interpreter
	opts  Options
}

func newFrame(m *graph.Model, task string, opts Options) (frame, error) {
	if err := checkTask(m, task); err != nil {
		return frame{}, err
	}
	ip, err := interp.New(m, opts.resolver(), opts.interpOptions()...)
	if err != nil {
		return frame{}, err
	}
	return frame{model: m, ip: ip, opts: opts}, nil
}

// Interpreter exposes the underlying interpreter (for memory accounting and
// per-invoke stats).
func (f *frame) Interpreter() *interp.Interpreter { return f.ip }

// begin opens a frame on the monitor: one frame is one sensor capture.
func (f *frame) begin() {
	if mon := f.opts.Monitor; mon != nil {
		mon.NextFrame()
		if f.opts.Orientation != nil {
			mon.LogSensor(core.KeySensorOrientation, f.opts.Orientation.Read(), "deg")
		}
	}
}

// invoke logs the preprocessed input and runs the model on it between the
// monitor's inference marks.
func (f *frame) invoke(in *tensor.Tensor) error {
	mon := f.opts.Monitor
	if mon != nil {
		mon.LogTensor(core.KeyPreprocessOutput, in)
		mon.OnInferenceStart()
	}
	if err := f.ip.SetInput(0, in); err != nil {
		return err
	}
	if err := f.ip.Invoke(); err != nil {
		return err
	}
	if mon != nil {
		mon.OnInferenceStop(f.ip)
	}
	return nil
}

// output returns a copy of model output slot i, safe to retain across
// invokes.
func (f *frame) output(i int) (*tensor.Tensor, error) {
	out, err := f.ip.Output(i)
	if err != nil {
		return nil, err
	}
	return out.Clone(), nil
}

// predict is invoke for the single-output classification heads when only the
// class is wanted: the argmax is taken over the interpreter's own output
// tensor, so nothing is cloned.
func (f *frame) predict(in *tensor.Tensor) (int, error) {
	if err := f.invoke(in); err != nil {
		return 0, err
	}
	out, err := f.ip.Output(0)
	if err != nil {
		return 0, err
	}
	return out.ArgMax(), nil
}

// classify is predict plus a copy of the scores.
func (f *frame) classify(in *tensor.Tensor) (int, *tensor.Tensor, error) {
	pred, err := f.predict(in)
	if err != nil {
		return 0, nil, err
	}
	out, err := f.output(0)
	return pred, out, err
}

// Classifier is an instrumented image-classification pipeline.
type Classifier struct{ imageFrame }

// NewClassifier builds a classification pipeline for the model. The
// preprocessing starts from the model's correct conventions with opts.Bug
// applied.
func NewClassifier(m *graph.Model, opts Options) (*Classifier, error) {
	f, err := newImageFrame(m, "classification", opts)
	if err != nil {
		return nil, err
	}
	return &Classifier{f}, nil
}

// imageFrame is frame plus what the three image tasks share: the image
// preprocessing — the model's correct conventions with opts.Bug applied —
// and the input tensor it fills frame after frame.
type imageFrame struct {
	frame
	pre preprocessor
	in  *tensor.Tensor
}

func newImageFrame(m *graph.Model, task string, opts Options) (imageFrame, error) {
	f, err := newFrame(m, task, opts)
	if err != nil {
		return imageFrame{}, err
	}
	pp, err := CorrectImagePreproc(m.Meta)
	if err != nil {
		return imageFrame{}, err
	}
	return imageFrame{frame: f, pre: newPreprocessor(m.Meta, pp.WithBug(opts.Bug))}, nil
}

// preprocess returns the model input for im; the next frame overwrites it.
func (f *imageFrame) preprocess(im *imaging.Image) *tensor.Tensor {
	f.in = f.pre.run(f.in, im)
	return f.in
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

// Classify runs one frame through the instrumented pipeline and returns the
// predicted class and scores.
func (c *Classifier) Classify(im *imaging.Image) (int, *tensor.Tensor, error) {
	c.begin()
	return c.classify(c.preprocess(im))
}

// Predict is Classify without the scores: the same frame, the same records,
// the same class, and no copy of the output.
func (c *Classifier) Predict(im *imaging.Image) (int, error) {
	c.begin()
	return c.predict(c.preprocess(im))
}

// Detector is an instrumented object-detection pipeline (SSD-style models
// with class-score and box-offset outputs).
type Detector struct{ imageFrame }

// NewDetector builds a detection pipeline.
func NewDetector(m *graph.Model, opts Options) (*Detector, error) {
	f, err := newImageFrame(m, "detection", opts)
	if err != nil {
		return nil, err
	}
	return &Detector{f}, nil
}

// Detect runs one frame and returns raw class scores [A, C] and box offsets
// [A, 4]; decoding/NMS is the caller's postprocessing (models.DecodeDetections).
func (d *Detector) Detect(im *imaging.Image) (scores, boxes *tensor.Tensor, err error) {
	d.begin()
	if err := d.invoke(d.preprocess(im)); err != nil {
		return nil, nil, err
	}
	if scores, err = d.output(0); err != nil {
		return nil, nil, err
	}
	if boxes, err = d.output(1); err != nil {
		return nil, nil, err
	}
	return scores, boxes, nil
}

// Segmenter is an instrumented segmentation pipeline.
type Segmenter struct{ imageFrame }

// NewSegmenter builds a segmentation pipeline.
func NewSegmenter(m *graph.Model, opts Options) (*Segmenter, error) {
	f, err := newImageFrame(m, "segmentation", opts)
	if err != nil {
		return nil, err
	}
	return &Segmenter{f}, nil
}

// Segment returns the per-pixel argmax label map.
func (s *Segmenter) Segment(im *imaging.Image) ([]int32, error) {
	s.begin()
	if err := s.invoke(s.preprocess(im)); err != nil {
		return nil, err
	}
	out, err := s.ip.Output(0)
	if err != nil {
		return nil, err
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
	frame
	preproc SpeechPreproc
}

// NewSpeechRecognizer builds a speech pipeline.
func NewSpeechRecognizer(m *graph.Model, opts Options) (*SpeechRecognizer, error) {
	f, err := newFrame(m, "speech", opts)
	if err != nil {
		return nil, err
	}
	pp, err := CorrectSpeechPreproc(m.Meta)
	if err != nil {
		return nil, err
	}
	return &SpeechRecognizer{frame: f, preproc: pp.WithBug(opts.Bug)}, nil
}

// Recognize classifies one waveform.
func (s *SpeechRecognizer) Recognize(wave []float64) (int, *tensor.Tensor, error) {
	s.begin()
	in, err := PreprocessSpeech(wave, s.preproc)
	if err != nil {
		return 0, nil, err
	}
	return s.classify(in)
}

// Predict is Recognize without the scores (see Classifier.Predict).
func (s *SpeechRecognizer) Predict(wave []float64) (int, error) {
	s.begin()
	in, err := PreprocessSpeech(wave, s.preproc)
	if err != nil {
		return 0, err
	}
	return s.predict(in)
}

// TextClassifier is an instrumented sentiment pipeline.
type TextClassifier struct {
	frame
	// tokenize maps raw text to ids; the BugLowercase variant folds case
	// first (the §A experiment).
	tokenize func(string) []int32
}

// NewTextClassifier builds a text pipeline. tokenizer maps text to fixed-
// length token ids (datasets.TokenizeText for the synthetic vocab).
func NewTextClassifier(m *graph.Model, tokenizer func(string) []int32, opts Options) (*TextClassifier, error) {
	f, err := newFrame(m, "text", opts)
	if err != nil {
		return nil, err
	}
	t := &TextClassifier{frame: f, tokenize: tokenizer}
	if opts.Bug == BugLowercase {
		t.tokenize = func(s string) []int32 { return tokenizer(lowercase(s)) }
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

// ClassifyText runs one review through the pipeline.
func (t *TextClassifier) ClassifyText(text string) (int, *tensor.Tensor, error) {
	t.begin()
	ids := t.tokenize(text)
	return t.classify(tensor.FromInt32(ids, 1, len(ids)))
}

// Predict is ClassifyText without the scores (see Classifier.Predict).
func (t *TextClassifier) Predict(text string) (int, error) {
	t.begin()
	ids := t.tokenize(text)
	return t.predict(tensor.FromInt32(ids, 1, len(ids)))
}
