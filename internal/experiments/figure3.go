package experiments

import (
	"fmt"
	"io"
	"strings"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/device"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/zoo"
)

// Figure3Cell is one (task, issue) cell of the coverage matrix: whether the
// injected issue degraded the pipeline, whether ML-EXray's validation caught
// it, and which assertion (if any) explained it.
type Figure3Cell struct {
	Task      string
	Issue     string
	Agreement float64
	Caught    bool
	Assertion string
}

// Figure3 reproduces the evaluation-summary matrix: ML-EXray applied to
// every task with every applicable issue injected, recording what the
// validation flow detects. Frames per cell are kept small; detection power
// at this scale already separates pass from fail cleanly.
func Figure3(frames int) ([]Figure3Cell, error) {
	if frames <= 0 {
		frames = 6
	}
	var cells []Figure3Cell

	// --- image tasks: classification, detection, segmentation ---
	imageBugs := []pipeline.Bug{pipeline.BugResize, pipeline.BugChannel, pipeline.BugNormalization, pipeline.BugRotation}
	type imageTask struct {
		task  string
		model string
	}
	for _, it := range []imageTask{
		{"classification", "mobilenetv2-mini"},
		{"detection", "ssd-mini"},
		{"segmentation", "deeplab-mini"},
	} {
		entry, err := zoo.Get(it.model)
		if err != nil {
			return nil, err
		}
		refLog, err := runImageTask(it.task, entry.Mobile, ops.NewReference(ops.Fixed()), pipeline.BugNone, frames, false)
		if err != nil {
			return nil, err
		}
		for _, bug := range imageBugs {
			edgeLog, err := runImageTask(it.task, entry.Mobile, fixedOptimized(), bug, frames, false)
			if err != nil {
				return nil, err
			}
			cells = append(cells, validateCell(it.task, string(bug), edgeLog, refLog))
		}
		// Quantization issue: the historical kernel build on the quantized
		// model, with per-layer capture for localisation.
		refPL, err := runImageTask(it.task, entry.Mobile, ops.NewReference(ops.Fixed()), pipeline.BugNone, frames, true)
		if err != nil {
			return nil, err
		}
		edgePL, err := runImageTask(it.task, entry.Quant, ops.NewOptimized(ops.Historical()), pipeline.BugNone, frames, true)
		if err != nil {
			return nil, err
		}
		cells = append(cells, validateCell(it.task, "quantization", edgePL, refPL))
	}

	// --- speech ---
	kws, err := zoo.Get("kws-mini-a")
	if err != nil {
		return nil, err
	}
	refLog, err := runSpeech(kws.Mobile, ops.NewReference(ops.Fixed()), pipeline.BugNone, frames)
	if err != nil {
		return nil, err
	}
	edgeLog, err := runSpeech(kws.Mobile, fixedOptimized(), pipeline.BugSpecNorm, frames)
	if err != nil {
		return nil, err
	}
	cells = append(cells, validateCell("speech", "specnorm", edgeLog, refLog))

	// --- text (the §A case: outputs agree even though embeddings differ) ---
	nnlm, err := zoo.Get("nnlm-mini")
	if err != nil {
		return nil, err
	}
	refLog, err = runText(nnlm.Mobile, pipeline.BugNone, frames)
	if err != nil {
		return nil, err
	}
	edgeLog, err = runText(nnlm.Mobile, pipeline.BugLowercase, frames)
	if err != nil {
		return nil, err
	}
	cells = append(cells, validateCell("text", "lowercase", edgeLog, refLog))

	// --- latency straggler: the §4.5(d) scenario — the float model on the
	// x86 emulator, where the ARM conv optimizations don't transfer and
	// convolution layers become order-of-magnitude outliers.
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		return nil, err
	}
	stragglerLog, err := runImageTaskOnDevice(entry.Mobile, fixedOptimized(), 2)
	if err != nil {
		return nil, err
	}
	// The reference run: the same pipeline on the target's native profile.
	refDevLog, err := runImageTaskOnProfile(entry.Mobile, fixedOptimized(), "Pixel4", 2)
	if err != nil {
		return nil, err
	}
	rep, err := core.Validate(stragglerLog, refDevLog, core.DefaultValidateOptions())
	if err != nil {
		return nil, err
	}
	cell := Figure3Cell{Task: "classification", Issue: "latency", Agreement: 1}
	for _, f := range rep.Findings {
		if f.Assertion == "straggler-latency" {
			cell.Caught = true
			cell.Assertion = f.Assertion
		}
	}
	cells = append(cells, cell)
	return cells, nil
}

func validateCell(task, issue string, edge, ref *core.Log) Figure3Cell {
	cell := Figure3Cell{Task: task, Issue: issue}
	rep, err := core.Validate(edge, ref, core.DefaultValidateOptions())
	if err != nil {
		return cell
	}
	cell.Agreement = rep.OutputAgreement
	if rep.OutputAgreement < 0.98 {
		cell.Caught = true
	}
	var names []string
	for _, f := range rep.Findings {
		names = append(names, f.Assertion)
	}
	if len(names) > 0 {
		cell.Caught = true
		cell.Assertion = strings.Join(names, ",")
	}
	return cell
}

func runImageTask(task string, m *graph.Model, resolver *ops.Resolver, bug pipeline.Bug, frames int, perLayer bool) (*core.Log, error) {
	monOpts := []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(perLayer)}
	opts := pipeline.Options{Resolver: resolver, Bug: bug}
	switch task {
	case "classification":
		// Classification rides the batched inference path (ReplayBatch
		// frames per interpreter invoke); the merged log is byte-identical
		// to the frame-at-a-time replay.
		samples := datasets.SynthImageNet(5555, frames)
		return replay.Classification(m, opts, replay.Images(samples), sweepOptions(monOpts), nil)
	case "detection":
		// Detection rides the batched inference path too: the two-output
		// head decodes per element through interp.Batch.OutputAt.
		samples := datasets.SynthCOCO(6666, frames)
		images := make([]*imaging.Image, len(samples))
		for i := range samples {
			images[i] = samples[i].Image
		}
		return replay.Detection(m, opts, images, sweepOptions(monOpts), nil)
	case "segmentation":
		return replay.Segmentation(m, opts, datasets.SynthSegmentation(8888, frames), sweepOptions(monOpts), nil)
	}
	return nil, fmt.Errorf("experiments: unknown image task %q", task)
}

func runSpeech(m *graph.Model, resolver *ops.Resolver, bug pipeline.Bug, frames int) (*core.Log, error) {
	return replay.Speech(m, pipeline.Options{Resolver: resolver, Bug: bug}, datasets.SynthSpeech(7777, frames),
		sweepOptions([]core.MonitorOption{core.WithCaptureMode(core.CaptureFull)}), nil)
}

func runText(m *graph.Model, bug pipeline.Bug, frames int) (*core.Log, error) {
	return replay.Text(m, pipeline.Options{Resolver: fixedOptimized(), Bug: bug}, datasets.SynthIMDB(9999, frames),
		sweepOptions([]core.MonitorOption{core.WithCaptureMode(core.CaptureFull)}), nil)
}

// runImageTaskOnDevice runs with the emulator latency model attached so the
// straggler analysis has per-layer latency records.
func runImageTaskOnDevice(m *graph.Model, resolver *ops.Resolver, frames int) (*core.Log, error) {
	return runImageTaskOnProfile(m, resolver, "Emulator-x86", frames)
}

func runImageTaskOnProfile(m *graph.Model, resolver *ops.Resolver, profile string, frames int) (*core.Log, error) {
	dev, err := device.ByName(profile)
	if err != nil {
		return nil, err
	}
	samples := datasets.SynthImageNet(5555, frames)
	monOpts := []core.MonitorOption{core.WithCaptureMode(core.CaptureStats), core.WithPerLayer(true)}
	return replay.Classification(m, pipeline.Options{Resolver: resolver, Device: dev},
		replay.Images(samples), sweepOptions(monOpts), nil)
}

// RenderFigure3 prints the coverage matrix.
func RenderFigure3(w io.Writer, cells []Figure3Cell) {
	fmt.Fprintf(w, "Figure 3 — task x issue coverage: what ML-EXray catches\n")
	fmt.Fprintf(w, "%-16s %-14s %10s %7s  %s\n", "task", "issue", "agreement", "caught", "assertion")
	for _, c := range cells {
		mark := " "
		if c.Caught {
			mark = "X"
		}
		fmt.Fprintf(w, "%-16s %-14s %10.2f %7s  %s\n", c.Task, c.Issue, c.Agreement, mark, c.Assertion)
	}
}
