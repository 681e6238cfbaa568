package pipeline

import (
	"fmt"

	"mlexray/internal/core"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/interp"
	"mlexray/internal/tensor"
)

// BatchClassifier is the batched-inference variant of Classifier: it runs up
// to Batch() frames per interpreter invoke through a graph.Rebatch-ed model
// replica, amortizing per-node dispatch across the batch. Telemetry is
// emitted per frame in exactly the sequential Classify order — frame
// advance, sensor reading, preprocessing capture, per-layer events (from
// sliced batch views), latency metrics, model output — so a replay through
// BatchClassifier merges byte-identical (modulo wall-clock values) to one
// through Classifier.
type BatchClassifier struct {
	model   *graph.Model
	bip     *interp.Batch
	preproc ImagePreproc
	opts    Options
	batch   int

	// ins retains the per-element preprocessed tensors between the compute
	// pass and the per-frame telemetry emission pass.
	ins   []*tensor.Tensor
	preds []int
}

// NewBatchClassifier builds a batch-capacity classification pipeline for the
// model. Preprocessing, bug injection and monitor semantics match
// NewClassifier frame for frame.
func NewBatchClassifier(m *graph.Model, batch int, opts Options) (*BatchClassifier, error) {
	if m.Meta.Task != "classification" {
		return nil, fmt.Errorf("pipeline: model %q is a %s model", m.Name, m.Meta.Task)
	}
	if batch < 1 {
		return nil, fmt.Errorf("pipeline: batch size %d", batch)
	}
	pp, err := CorrectImagePreproc(m.Meta)
	if err != nil {
		return nil, err
	}
	c := &BatchClassifier{
		model:   m,
		preproc: pp.WithBug(opts.Bug),
		opts:    opts,
		batch:   batch,
		ins:     make([]*tensor.Tensor, batch),
		preds:   make([]int, batch),
	}
	c.bip, err = interp.NewBatch(m, batch, opts.resolver(), opts.interpOptions()...)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Batch returns the pipeline's batch capacity.
func (c *BatchClassifier) Batch() int { return c.batch }

// Interpreter exposes the underlying batched interpreter (for memory
// accounting and per-frame stats).
func (c *BatchClassifier) Interpreter() *interp.Batch { return c.bip }

// Preproc returns the active preprocessing configuration.
func (c *BatchClassifier) Preproc() ImagePreproc { return c.preproc }

// Clone builds an independent replica of the pipeline — same model, batch,
// bug and device, but its own interpreter arena and the given monitor — so
// replicas can run frame batches concurrently.
func (c *BatchClassifier) Clone(mon *core.Monitor) (*BatchClassifier, error) {
	opts := c.opts
	opts.Monitor = mon
	return NewBatchClassifier(c.model, c.batch, opts)
}

// ClassifyBatch runs 1..Batch() frames through one batched invoke and
// returns the predicted class per frame. The returned slice is reused by the
// next call. A short final batch pads the unused interpreter slots with the
// last frame (the padded lanes compute but emit no telemetry).
func (c *BatchClassifier) ClassifyBatch(ims []*imaging.Image) ([]int, error) {
	k := len(ims)
	if k == 0 || k > c.batch {
		return nil, fmt.Errorf("pipeline: %d frames for batch %d", k, c.batch)
	}
	for e, im := range ims {
		c.ins[e] = PreprocessImage(im, c.model.Meta, c.preproc)
		if err := c.bip.SetInputElem(0, e, c.ins[e]); err != nil {
			return nil, err
		}
	}
	for e := k; e < c.batch; e++ { // pad the tail so every lane holds valid data
		if err := c.bip.SetInputElem(0, e, c.ins[k-1]); err != nil {
			return nil, err
		}
	}
	if err := c.bip.Invoke(); err != nil {
		return nil, err
	}
	mon := c.opts.Monitor
	for e := 0; e < k; e++ {
		out, err := c.bip.OutputAt(0, e)
		if err != nil {
			return nil, err
		}
		if mon != nil {
			// Mirror the sequential Classify record order exactly.
			mon.NextFrame()
			if c.opts.Orientation != nil {
				mon.LogSensor(core.KeySensorOrientation, c.opts.Orientation.Read(), "deg")
			}
			mon.LogTensor(core.KeyPreprocessOutput, c.ins[e])
			c.bip.EmitFrame(e)
			mon.OnBatchFrame(c.bip.FrameStats(), out)
		}
		c.preds[e] = out.ArgMax()
	}
	return c.preds[:k], nil
}

// BatchDetector is the batched-inference variant of Detector: up to Batch()
// frames per interpreter invoke through a graph.Rebatch-ed replica of the
// SSD-style model, with the two-output head (class scores, box offsets)
// decoded per element through interp.Batch.OutputAt. Telemetry comes out in
// exactly the sequential Detect record order — frame advance, preprocessing
// capture, per-layer events from sliced batch views, latency metrics, the
// score output — so batched detection replays merge byte-identical (modulo
// wall-clock values) to frame-at-a-time ones.
type BatchDetector struct {
	model   *graph.Model
	bip     *interp.Batch
	preproc ImagePreproc
	opts    Options
	batch   int

	ins    []*tensor.Tensor
	scores []*tensor.Tensor
	boxes  []*tensor.Tensor
}

// NewBatchDetector builds a batch-capacity detection pipeline for the model.
// Preprocessing, bug injection and monitor semantics match NewDetector frame
// for frame.
func NewBatchDetector(m *graph.Model, batch int, opts Options) (*BatchDetector, error) {
	if m.Meta.Task != "detection" {
		return nil, fmt.Errorf("pipeline: model %q is a %s model", m.Name, m.Meta.Task)
	}
	if batch < 1 {
		return nil, fmt.Errorf("pipeline: batch size %d", batch)
	}
	pp, err := CorrectImagePreproc(m.Meta)
	if err != nil {
		return nil, err
	}
	d := &BatchDetector{
		model:   m,
		preproc: pp.WithBug(opts.Bug),
		opts:    opts,
		batch:   batch,
		ins:     make([]*tensor.Tensor, batch),
		scores:  make([]*tensor.Tensor, batch),
		boxes:   make([]*tensor.Tensor, batch),
	}
	d.bip, err = interp.NewBatch(m, batch, opts.resolver(), opts.interpOptions()...)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Batch returns the pipeline's batch capacity.
func (d *BatchDetector) Batch() int { return d.batch }

// Interpreter exposes the underlying batched interpreter.
func (d *BatchDetector) Interpreter() *interp.Batch { return d.bip }

// Preproc returns the active preprocessing configuration.
func (d *BatchDetector) Preproc() ImagePreproc { return d.preproc }

// Clone builds an independent replica of the pipeline with its own
// interpreter arena and the given monitor (see BatchClassifier.Clone).
func (d *BatchDetector) Clone(mon *core.Monitor) (*BatchDetector, error) {
	opts := d.opts
	opts.Monitor = mon
	return NewBatchDetector(d.model, d.batch, opts)
}

// DetectBatch runs 1..Batch() frames through one batched invoke and returns
// each frame's raw class scores [A, C] and box offsets [A, 4], decoded per
// element from the two output slots. The returned slices are reused by the
// next call; the tensors are clones, safe to retain. A short final batch
// pads the unused interpreter lanes with the last frame (padded lanes
// compute but emit no telemetry).
func (d *BatchDetector) DetectBatch(ims []*imaging.Image) (scores, boxes []*tensor.Tensor, err error) {
	k := len(ims)
	if k == 0 || k > d.batch {
		return nil, nil, fmt.Errorf("pipeline: %d frames for batch %d", k, d.batch)
	}
	for e, im := range ims {
		d.ins[e] = PreprocessImage(im, d.model.Meta, d.preproc)
		if err := d.bip.SetInputElem(0, e, d.ins[e]); err != nil {
			return nil, nil, err
		}
	}
	for e := k; e < d.batch; e++ { // pad the tail so every lane holds valid data
		if err := d.bip.SetInputElem(0, e, d.ins[k-1]); err != nil {
			return nil, nil, err
		}
	}
	if err := d.bip.Invoke(); err != nil {
		return nil, nil, err
	}
	mon := d.opts.Monitor
	for e := 0; e < k; e++ {
		s, err := d.bip.OutputAt(0, e)
		if err != nil {
			return nil, nil, err
		}
		b, err := d.bip.OutputAt(1, e)
		if err != nil {
			return nil, nil, err
		}
		if mon != nil {
			// Mirror the sequential Detect record order exactly (its
			// OnInferenceStop logs output slot 0 — the scores).
			mon.NextFrame()
			mon.LogTensor(core.KeyPreprocessOutput, d.ins[e])
			d.bip.EmitFrame(e)
			mon.OnBatchFrame(d.bip.FrameStats(), s)
		}
		d.scores[e] = s.Clone()
		d.boxes[e] = b.Clone()
	}
	return d.scores[:k], d.boxes[:k], nil
}
