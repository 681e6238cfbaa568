// Package replay binds the instrumented pipelines to the parallel replay
// engine: one call replays a dataset through per-worker pipeline replicas —
// frame-at-a-time or batched — and returns the deterministically merged
// telemetry log. The experiment sweeps and the CLIs (edgerun, refrun, exray)
// all drive dataset replays through this package, so batching and worker
// policy live in exactly one place.
//
// Every entry point is a thin call into one generic binding (binding, run,
// runFleet), which owns the rules they share:
//
//   - nil MonitorOptions (runner.Options' or the Fleet's) replays
//     uninstrumented — accuracy-eval mode: replicas carry no monitor, the
//     hot path pays no telemetry cost and the returned log is empty. Non-nil
//     (even empty) instruments each replica with its shard monitor.
//     popts.Monitor is always ignored.
//   - BatchFrames > 1 (runner.Options' or the DeviceSpec's) selects the
//     batched replica where the task has one (classification, detection) and
//     batches dispatch only where it has none. Merged telemetry is
//     byte-identical either way (modulo wall-clock latency values).
//   - Replicas are built inside the worker factory from pipeline.Options, so
//     construction errors surface before any worker starts and no template
//     interpreter is allocated.
//   - onFrame, when non-nil, observes every frame's result on the worker
//     goroutines: it must only write frame-indexed slots or synchronise.
//   - A fleet replica carries its device's latency profile; perDevice, when
//     non-nil, then edits that device's pipeline options — the hook for a
//     device-local configuration (or bug) under test.
package replay

import (
	"fmt"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/pipeline"
	"mlexray/internal/runner"
	"mlexray/internal/tensor"
)

// ValidateFlags rejects nonsensical replay sizing from the CLIs' shared
// -frames/-parallel/-batch flags up front, with a clear message instead of
// a hang or a panic deeper in the engine. All three replay CLIs (edgerun,
// refrun, exray) use the same flag names, so the messages live here once.
func ValidateFlags(frames, parallel, batch int) error {
	if frames < 1 {
		return fmt.Errorf("-frames must be positive (got %d)", frames)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = all cores; got %d)", parallel)
	}
	if batch < 1 {
		return fmt.Errorf("-batch must be positive (got %d)", batch)
	}
	return nil
}

// Images projects an image-sample set to the replay input — the shared
// sample-to-frames adapter for the CLIs, sweeps and tests.
func Images(samples []datasets.ImageSample) []*imaging.Image {
	images := make([]*imaging.Image, len(samples))
	for i := range samples {
		images[i] = samples[i].Image
	}
	return images
}

// binding is how one task plugs into the replay engine: its frame count and
// how to build a worker's pipeline replica from pipeline.Options. R is the
// per-frame result the task reports to an onFrame observer.
type binding[R any] struct {
	frames int
	// one builds a frame-at-a-time replica: the returned function replays
	// dataset frame i.
	one func(o pipeline.Options) (func(i int) (R, error), error)
	// many, nil for tasks without a batched pipeline, builds a replica that
	// runs up to batch frames per interpreter invoke: the returned function
	// replays frames [start,end) and returns their results in frame order,
	// in a slice the next call reuses.
	many func(o pipeline.Options, batch int) (func(start, end int) ([]R, error), error)
}

// worker builds one replay worker around its monitor shard.
func (b binding[R]) worker(o pipeline.Options, mon *core.Monitor, monOpts []core.MonitorOption,
	batch int, onFrame func(int, R) error) (runner.ProcessBatchFunc, error) {
	o.Monitor = nil
	if monOpts != nil {
		o.Monitor = mon
	}
	if batch > 1 && b.many != nil {
		many, err := b.many(o, batch)
		if err != nil {
			return nil, err
		}
		return func(start, end int) error {
			results, err := many(start, end)
			if err != nil || onFrame == nil {
				return err
			}
			for j, r := range results {
				if err := onFrame(start+j, r); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
	one, err := b.one(o)
	if err != nil {
		return nil, err
	}
	return runner.PerFrame(mon, func(i int) error {
		r, err := one(i)
		if err != nil || onFrame == nil {
			return err
		}
		return onFrame(i, r)
	}), nil
}

// run replays the task on the single-device engine.
func run[R any](b binding[R], popts pipeline.Options, ropts runner.Options, onFrame func(int, R) error) (*core.Log, error) {
	return runner.ReplayBatched(b.frames, func(mon *core.Monitor) (runner.ProcessBatchFunc, error) {
		return b.worker(popts, mon, ropts.MonitorOptions, ropts.BatchFrames, onFrame)
	}, ropts)
}

// runFleet replays the task across a simulated device fleet.
func runFleet[R any](b binding[R], popts pipeline.Options, fleet *runner.Fleet,
	perDevice func(dev int, spec runner.DeviceSpec, o *pipeline.Options)) (*runner.FleetResult, error) {
	return fleet.ReplayBatched(b.frames, func(dev int, spec runner.DeviceSpec, mon *core.Monitor) (runner.ProcessBatchFunc, error) {
		o := popts
		o.Device = spec.Profile
		if perDevice != nil {
			perDevice(dev, spec, &o)
		}
		return b.worker(o, mon, fleet.MonitorOptions, spec.BatchFrames, nil)
	})
}

// ClassifyResult is the per-frame outcome a classification, speech or text
// replay reports to its observer callback.
type ClassifyResult struct {
	// Pred is the predicted class (argmax of the model output).
	Pred int
	// Modeled is the device-model latency projection for the frame's
	// invoke; zero without a device profile.
	Modeled time.Duration
}

func classification(m *graph.Model, images []*imaging.Image) binding[ClassifyResult] {
	return binding[ClassifyResult]{
		frames: len(images),
		one: func(o pipeline.Options) (func(int) (ClassifyResult, error), error) {
			cl, err := pipeline.NewClassifier(m, o)
			if err != nil {
				return nil, err
			}
			return func(i int) (ClassifyResult, error) {
				pred, err := cl.Predict(images[i])
				return ClassifyResult{Pred: pred, Modeled: cl.Interpreter().LastInvokeStats().Modeled}, err
			}, nil
		},
		many: func(o pipeline.Options, batch int) (func(int, int) ([]ClassifyResult, error), error) {
			bc, err := pipeline.NewBatchClassifier(m, batch, o)
			if err != nil {
				return nil, err
			}
			results := make([]ClassifyResult, batch)
			return func(start, end int) ([]ClassifyResult, error) {
				preds, err := bc.ClassifyBatch(images[start:end])
				modeled := bc.Interpreter().FrameStats().Modeled
				for j, p := range preds {
					results[j] = ClassifyResult{Pred: p, Modeled: modeled}
				}
				return results[:len(preds)], err
			}, nil
		},
	}
}

// Classification replays images through classifier replicas
// (pipeline.Classifier, or pipeline.BatchClassifier with ropts.BatchFrames >
// 1) on the parallel replay engine and returns the merged telemetry log. See
// the package comment for the MonitorOptions, BatchFrames and onFrame rules.
func Classification(m *graph.Model, popts pipeline.Options, images []*imaging.Image,
	ropts runner.Options, onFrame func(frame int, r ClassifyResult) error) (*core.Log, error) {
	return run(classification(m, images), popts, ropts, onFrame)
}

// FleetClassification replays images across a heterogeneous simulated
// device fleet: the fleet's shard policy splits the frame range across its
// DeviceSpecs, and every device runs its shard through classifier replicas
// carrying that device's latency profile. Per-device shard logs land in
// FleetResult.DeviceLogs (and the per-device sinks); the merged log keeps the
// sequential-order determinism contract of Classification.
func FleetClassification(m *graph.Model, popts pipeline.Options, images []*imaging.Image,
	fleet *runner.Fleet, perDevice func(dev int, spec runner.DeviceSpec, o *pipeline.Options)) (*runner.FleetResult, error) {
	return runFleet(classification(m, images), popts, fleet, perDevice)
}

// DetectResult is the per-frame outcome a detection replay reports to its
// observer callback: the raw class scores [A, C] and box offsets [A, 4]
// (postprocessing — decode/NMS — stays with the caller).
type DetectResult struct {
	Scores *tensor.Tensor
	Boxes  *tensor.Tensor
}

func detection(m *graph.Model, images []*imaging.Image) binding[DetectResult] {
	return binding[DetectResult]{
		frames: len(images),
		one: func(o pipeline.Options) (func(int) (DetectResult, error), error) {
			det, err := pipeline.NewDetector(m, o)
			if err != nil {
				return nil, err
			}
			return func(i int) (DetectResult, error) {
				scores, boxes, err := det.Detect(images[i])
				return DetectResult{Scores: scores, Boxes: boxes}, err
			}, nil
		},
		many: func(o pipeline.Options, batch int) (func(int, int) ([]DetectResult, error), error) {
			bd, err := pipeline.NewBatchDetector(m, batch, o)
			if err != nil {
				return nil, err
			}
			results := make([]DetectResult, batch)
			return func(start, end int) ([]DetectResult, error) {
				scores, boxes, err := bd.DetectBatch(images[start:end])
				for j := range scores {
					results[j] = DetectResult{Scores: scores[j], Boxes: boxes[j]}
				}
				return results[:len(scores)], err
			}, nil
		},
	}
}

// Detection replays images through detector replicas (pipeline.Detector, or
// pipeline.BatchDetector with ropts.BatchFrames > 1) on the parallel replay
// engine and returns the merged telemetry log.
func Detection(m *graph.Model, popts pipeline.Options, images []*imaging.Image,
	ropts runner.Options, onFrame func(frame int, r DetectResult) error) (*core.Log, error) {
	return run(detection(m, images), popts, ropts, onFrame)
}

// FleetDetection is the detection binding of the fleet scheduler, mirroring
// FleetClassification.
func FleetDetection(m *graph.Model, popts pipeline.Options, images []*imaging.Image,
	fleet *runner.Fleet, perDevice func(dev int, spec runner.DeviceSpec, o *pipeline.Options)) (*runner.FleetResult, error) {
	return runFleet(detection(m, images), popts, fleet, perDevice)
}

func segmentation(m *graph.Model, samples []datasets.SegmentationSample) binding[[]int32] {
	return binding[[]int32]{
		frames: len(samples),
		one: func(o pipeline.Options) (func(int) ([]int32, error), error) {
			sg, err := pipeline.NewSegmenter(m, o)
			if err != nil {
				return nil, err
			}
			return func(i int) ([]int32, error) { return sg.Segment(samples[i].Image) }, nil
		},
	}
}

// Segmentation replays the samples' images through pipeline.Segmenter
// replicas and returns the merged telemetry log; onFrame observes each
// frame's per-pixel label map. Segmentation has no batched pipeline, so
// ropts.BatchFrames batches dispatch only.
func Segmentation(m *graph.Model, popts pipeline.Options, samples []datasets.SegmentationSample,
	ropts runner.Options, onFrame func(frame int, labels []int32) error) (*core.Log, error) {
	return run(segmentation(m, samples), popts, ropts, onFrame)
}

func speech(m *graph.Model, samples []datasets.AudioSample) binding[ClassifyResult] {
	return binding[ClassifyResult]{
		frames: len(samples),
		one: func(o pipeline.Options) (func(int) (ClassifyResult, error), error) {
			sr, err := pipeline.NewSpeechRecognizer(m, o)
			if err != nil {
				return nil, err
			}
			return func(i int) (ClassifyResult, error) {
				pred, err := sr.Predict(samples[i].Wave)
				return ClassifyResult{Pred: pred, Modeled: sr.Interpreter().LastInvokeStats().Modeled}, err
			}, nil
		},
	}
}

// Speech replays the samples' waveforms through pipeline.SpeechRecognizer
// replicas and returns the merged telemetry log. Speech has no batched
// pipeline, so ropts.BatchFrames batches dispatch only.
func Speech(m *graph.Model, popts pipeline.Options, samples []datasets.AudioSample,
	ropts runner.Options, onFrame func(frame int, r ClassifyResult) error) (*core.Log, error) {
	return run(speech(m, samples), popts, ropts, onFrame)
}

func text(m *graph.Model, samples []datasets.TextSample) binding[ClassifyResult] {
	return binding[ClassifyResult]{
		frames: len(samples),
		one: func(o pipeline.Options) (func(int) (ClassifyResult, error), error) {
			tc, err := pipeline.NewTextClassifier(m, datasets.TokenizeText, o)
			if err != nil {
				return nil, err
			}
			return func(i int) (ClassifyResult, error) {
				pred, err := tc.Predict(samples[i].Text)
				return ClassifyResult{Pred: pred, Modeled: tc.Interpreter().LastInvokeStats().Modeled}, err
			}, nil
		},
	}
}

// Text replays the samples' raw text, tokenized with datasets.TokenizeText,
// through pipeline.TextClassifier replicas and returns the merged telemetry
// log. Text has no batched pipeline, so ropts.BatchFrames batches dispatch
// only.
func Text(m *graph.Model, popts pipeline.Options, samples []datasets.TextSample,
	ropts runner.Options, onFrame func(frame int, r ClassifyResult) error) (*core.Log, error) {
	return run(text(m, samples), popts, ropts, onFrame)
}
