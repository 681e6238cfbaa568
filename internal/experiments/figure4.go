package experiments

import (
	"fmt"
	"io"

	"mlexray/internal/datasets"
	"mlexray/internal/imaging"
	"mlexray/internal/metrics"
	"mlexray/internal/models"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/tensor"
	"mlexray/internal/zoo"
)

// Figure4aRow is one model's accuracy under each preprocessing bug
// (Figure 4a: "ML application performance degraded by preprocessing bugs").
type Figure4aRow struct {
	Model    string
	Baseline float64
	ByBug    map[pipeline.Bug]float64
}

// Figure4a evaluates every zoo classifier under each single preprocessing
// bug. Each bug is injected independently (each bar inherits only from the
// correct baseline, as in the paper).
func Figure4a() ([]Figure4aRow, error) {
	entries, err := classifierZoo()
	if err != nil {
		return nil, err
	}
	var rows []Figure4aRow
	for _, e := range entries {
		row := Figure4aRow{Model: e.Name, ByBug: map[pipeline.Bug]float64{}}
		row.Baseline, err = evalClassifierAccuracy(e.Mobile, pipeline.Options{Resolver: fixedOptimized()}, EvalFrames)
		if err != nil {
			return nil, err
		}
		for _, bug := range pipeline.AllImageBugs {
			acc, err := evalClassifierAccuracy(e.Mobile,
				pipeline.Options{Resolver: fixedOptimized(), Bug: bug}, EvalFrames)
			if err != nil {
				return nil, err
			}
			row.ByBug[bug] = acc
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure4a prints the figure as a table.
func RenderFigure4a(w io.Writer, rows []Figure4aRow) {
	fmt.Fprintf(w, "Figure 4a — image classification top-1 accuracy under preprocessing bugs\n")
	fmt.Fprintf(w, "%-18s %8s %8s %8s %8s %8s\n", "model", "baseline", "resize", "channel", "norm", "rotation")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %8.2f %8.2f %8.2f %8.2f %8.2f\n", r.Model, r.Baseline,
			r.ByBug[pipeline.BugResize], r.ByBug[pipeline.BugChannel],
			r.ByBug[pipeline.BugNormalization], r.ByBug[pipeline.BugRotation])
	}
}

// Figure4bRow is one detector's mAP under each preprocessing bug.
type Figure4bRow struct {
	Model    string
	Baseline float64
	ByBug    map[pipeline.Bug]float64
}

// Figure4b evaluates the SSD and two-stage detectors on SynthCOCO under the
// preprocessing bugs (Figure 4b).
func Figure4b() ([]Figure4bRow, error) {
	samples := datasets.SynthCOCO(6666, 60)
	gt := make([][]metrics.GTBox, len(samples))
	for i, s := range samples {
		for _, b := range s.Boxes {
			gt[i] = append(gt[i], metrics.GTBox{Box: [4]float64{b.CY, b.CX, b.H, b.W}, Class: b.Class})
		}
	}
	var rows []Figure4bRow
	for _, name := range []string{"ssd-mini", "frcnn-mini"} {
		e, err := zoo.Get(name)
		if err != nil {
			return nil, err
		}
		row := Figure4bRow{Model: name, ByBug: map[pipeline.Bug]float64{}}
		images := make([]*imaging.Image, len(samples))
		for i := range samples {
			images[i] = samples[i].Image
		}
		evalMAP := func(bug pipeline.Bug) (float64, error) {
			// Batched detection compute (nil MonitorOptions: mAP eval needs
			// no telemetry). Per-frame detection slots keep the flattened
			// list in frame order regardless of worker scheduling.
			byFrame := make([][]metrics.DetBox, len(samples))
			_, err := replay.Detection(e.Mobile, pipeline.Options{Resolver: fixedOptimized(), Bug: bug}, images,
				sweepOptions(nil),
				func(i int, r replay.DetectResult) error {
					for _, d := range models.DecodeDetections(scoresOf(r.Scores), boxesOf(r.Boxes), e.Mobile.Meta.Anchors, 0.5, 0.45) {
						byFrame[i] = append(byFrame[i], metrics.DetBox{Box: d.Box, Class: d.Class, Score: d.Score, Image: i})
					}
					return nil
				})
			if err != nil {
				return 0, err
			}
			var dets []metrics.DetBox
			for _, fd := range byFrame {
				dets = append(dets, fd...)
			}
			return metrics.MeanAP(dets, gt, datasets.DetectionNumClasses, 0.5)
		}
		row.Baseline, err = evalMAP(pipeline.BugNone)
		if err != nil {
			return nil, err
		}
		for _, bug := range pipeline.AllImageBugs {
			m, err := evalMAP(bug)
			if err != nil {
				return nil, err
			}
			row.ByBug[bug] = m
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func scoresOf(t *tensor.Tensor) *tensor.Tensor { return t.Reshape(-1, 4) }
func boxesOf(t *tensor.Tensor) *tensor.Tensor  { return t.Reshape(-1, 4) }

// RenderFigure4b prints the detection figure.
func RenderFigure4b(w io.Writer, rows []Figure4bRow) {
	fmt.Fprintf(w, "Figure 4b — object detection mAP@0.5 under preprocessing bugs\n")
	fmt.Fprintf(w, "%-18s %8s %8s %8s %8s %8s\n", "model", "baseline", "resize", "channel", "norm", "rotation")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %8.2f %8.2f %8.2f %8.2f %8.2f\n", r.Model, r.Baseline,
			r.ByBug[pipeline.BugResize], r.ByBug[pipeline.BugChannel],
			r.ByBug[pipeline.BugNormalization], r.ByBug[pipeline.BugRotation])
	}
}

// Figure4cRow is one speech model's accuracy with the correct vs the wrong
// spectrogram normalization.
type Figure4cRow struct {
	Model      string
	Baseline   float64
	WrongNorm  float64
	Convention string
}

// Figure4c evaluates both KWS models (trained under different spectrogram
// normalization conventions) with correct and mismatched preprocessing.
func Figure4c() ([]Figure4cRow, error) {
	samples := datasets.SynthSpeech(7777, 96)
	var rows []Figure4cRow
	for _, name := range []string{"kws-mini-a", "kws-mini-b"} {
		e, err := zoo.Get(name)
		if err != nil {
			return nil, err
		}
		eval := func(bug pipeline.Bug) (float64, error) {
			preds := make([]int, len(samples))
			labels := make([]int, len(samples))
			// Accuracy eval needs no telemetry: nil MonitorOptions.
			_, err := replay.Speech(e.Mobile, pipeline.Options{Resolver: fixedOptimized(), Bug: bug}, samples,
				sweepOptions(nil), func(i int, r replay.ClassifyResult) error {
					preds[i], labels[i] = r.Pred, samples[i].Label
					return nil
				})
			if err != nil {
				return 0, err
			}
			return metrics.Top1(preds, labels)
		}
		row := Figure4cRow{Model: name, Convention: e.Mobile.Meta.SpecNorm}
		if row.Baseline, err = eval(pipeline.BugNone); err != nil {
			return nil, err
		}
		if row.WrongNorm, err = eval(pipeline.BugSpecNorm); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure4c prints the speech figure.
func RenderFigure4c(w io.Writer, rows []Figure4cRow) {
	fmt.Fprintf(w, "Figure 4c — speech keyword accuracy under spectrogram normalization mismatch\n")
	fmt.Fprintf(w, "%-14s %-14s %9s %10s\n", "model", "convention", "baseline", "wrong-norm")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-14s %9.2f %10.2f\n", r.Model, r.Convention, r.Baseline, r.WrongNorm)
	}
}
