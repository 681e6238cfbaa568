package pipeline

import (
	"fmt"

	"mlexray/internal/core"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/interp"
	"mlexray/internal/tensor"
)

// batched is what the batched image pipelines share: up to batch frames per
// interpreter invoke through a graph.Rebatch-ed model replica, amortizing
// per-node dispatch across the batch, in two passes — invoke fills the lanes
// and computes, emit then logs one element's telemetry in exactly the record
// order of the frame-at-a-time skeleton (frame.begin/invoke): frame advance,
// sensor reading, preprocessing capture, per-layer events (from sliced batch
// views), latency metrics, model output slot 0. A replay through a batched
// pipeline therefore merges byte-identical (modulo wall-clock values) to one
// through its frame-at-a-time twin.
type batched struct {
	bip  *interp.Batch
	pre  preprocessor
	opts Options
	// ins holds the per-element preprocessed tensors between the compute
	// pass and the per-frame telemetry emission pass, one per lane, each
	// refilled by the next batch; its length is the batch capacity.
	ins []*tensor.Tensor
}

func newBatched(m *graph.Model, task string, batch int, opts Options) (batched, error) {
	if err := checkTask(m, task); err != nil {
		return batched{}, err
	}
	if batch < 1 {
		return batched{}, fmt.Errorf("pipeline: batch size %d", batch)
	}
	pp, err := CorrectImagePreproc(m.Meta)
	if err != nil {
		return batched{}, err
	}
	bip, err := interp.NewBatch(m, batch, opts.resolver(), opts.interpOptions()...)
	if err != nil {
		return batched{}, err
	}
	return batched{bip: bip, pre: newPreprocessor(m.Meta, pp.WithBug(opts.Bug)), opts: opts, ins: make([]*tensor.Tensor, batch)}, nil
}

// Interpreter exposes the underlying batched interpreter (for memory
// accounting and per-frame stats).
func (b *batched) Interpreter() *interp.Batch { return b.bip }

// invoke preprocesses 1..batch frames into the interpreter's lanes and runs
// one batched invoke. A short final batch pads the unused lanes with the
// last frame (the padded lanes compute but emit no telemetry).
func (b *batched) invoke(ims []*imaging.Image) error {
	k := len(ims)
	if k == 0 || k > len(b.ins) {
		return fmt.Errorf("pipeline: %d frames for batch %d", k, len(b.ins))
	}
	for e, im := range ims {
		b.ins[e] = b.pre.run(b.ins[e], im)
		if err := b.bip.SetInputElem(0, e, b.ins[e]); err != nil {
			return err
		}
	}
	for e := k; e < len(b.ins); e++ { // pad the tail so every lane holds valid data
		if err := b.bip.SetInputElem(0, e, b.ins[k-1]); err != nil {
			return err
		}
	}
	return b.bip.Invoke()
}

// emit logs element e's telemetry and returns the live view of its output
// slot 0. Call once per element, in order, after invoke.
func (b *batched) emit(e int) (*tensor.Tensor, error) {
	out, err := b.bip.OutputAt(0, e)
	if err != nil {
		return nil, err
	}
	if mon := b.opts.Monitor; mon != nil {
		mon.NextFrame()
		if b.opts.Orientation != nil {
			mon.LogSensor(core.KeySensorOrientation, b.opts.Orientation.Read(), "deg")
		}
		mon.LogTensor(core.KeyPreprocessOutput, b.ins[e])
		b.bip.EmitFrame(e)
		mon.OnBatchFrame(b.bip.FrameStats(), out)
	}
	return out, nil
}

// BatchClassifier is the batched-inference variant of Classifier.
type BatchClassifier struct {
	batched
	preds []int
}

// NewBatchClassifier builds a batch-capacity classification pipeline for the
// model. Preprocessing, bug injection and monitor semantics match
// NewClassifier frame for frame.
func NewBatchClassifier(m *graph.Model, batch int, opts Options) (*BatchClassifier, error) {
	b, err := newBatched(m, "classification", batch, opts)
	if err != nil {
		return nil, err
	}
	return &BatchClassifier{batched: b, preds: make([]int, batch)}, nil
}

// ClassifyBatch runs 1..batch frames through one batched invoke and returns
// the predicted class per frame. The returned slice is reused by the next
// call.
func (c *BatchClassifier) ClassifyBatch(ims []*imaging.Image) ([]int, error) {
	if err := c.invoke(ims); err != nil {
		return nil, err
	}
	for e := range ims {
		out, err := c.emit(e)
		if err != nil {
			return nil, err
		}
		c.preds[e] = out.ArgMax()
	}
	return c.preds[:len(ims)], nil
}

// BatchDetector is the batched-inference variant of Detector: the two-output
// head (class scores, box offsets) is decoded per element through
// interp.Batch.OutputAt, and — like Detector's OnInferenceStop — the logged
// model output is slot 0, the scores.
type BatchDetector struct {
	batched
	scores []*tensor.Tensor
	boxes  []*tensor.Tensor
}

// NewBatchDetector builds a batch-capacity detection pipeline for the model.
// Preprocessing, bug injection and monitor semantics match NewDetector frame
// for frame.
func NewBatchDetector(m *graph.Model, batch int, opts Options) (*BatchDetector, error) {
	b, err := newBatched(m, "detection", batch, opts)
	if err != nil {
		return nil, err
	}
	return &BatchDetector{batched: b, scores: make([]*tensor.Tensor, batch), boxes: make([]*tensor.Tensor, batch)}, nil
}

// DetectBatch runs 1..batch frames through one batched invoke and returns
// each frame's raw class scores [A, C] and box offsets [A, 4]. The returned
// slices are reused by the next call; the tensors are clones, safe to
// retain.
func (d *BatchDetector) DetectBatch(ims []*imaging.Image) (scores, boxes []*tensor.Tensor, err error) {
	if err := d.invoke(ims); err != nil {
		return nil, nil, err
	}
	for e := range ims {
		s, err := d.emit(e)
		if err != nil {
			return nil, nil, err
		}
		b, err := d.bip.OutputAt(1, e)
		if err != nil {
			return nil, nil, err
		}
		d.scores[e], d.boxes[e] = s.Clone(), b.Clone()
	}
	return d.scores[:len(ims)], d.boxes[:len(ims)], nil
}
