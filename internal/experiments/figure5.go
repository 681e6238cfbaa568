package experiments

import (
	"fmt"
	"io"

	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/zoo"
)

// Figure5Row is one model's accuracy across deployment versions (Figure 5):
// the original checkpoint, the converted float model, the quantized model on
// the production (optimized) op resolver, and the quantized model on the
// reference op resolver — all on the historical (defective) kernel build.
type Figure5Row struct {
	Model        string
	Reference    float64 // checkpoint, reference kernels
	Mobile       float64 // converted float, optimized kernels
	MobileQuant  float64 // quantized, optimized kernels (OpResolver)
	MobileQuantR float64 // quantized, reference kernels (RefOpResolver)
}

// Figure5Models lists the models the paper's Figure 5 evaluates.
func Figure5Models() []string {
	return []string{"mobilenetv1-mini", "mobilenetv2-mini", "mobilenetv3-mini", "resnet-mini", "inception-mini"}
}

// Figure5 reproduces the model-optimization/quantization accuracy study.
func Figure5() ([]Figure5Row, error) {
	var rows []Figure5Row
	for _, name := range Figure5Models() {
		e, err := zoo.Get(name)
		if err != nil {
			return nil, err
		}
		row := Figure5Row{Model: name}
		if row.Reference, err = evalClassifierAccuracy(e.Checkpoint,
			pipeline.Options{Resolver: ops.NewReference(ops.Historical())}, EvalFrames); err != nil {
			return nil, err
		}
		if row.Mobile, err = evalClassifierAccuracy(e.Mobile,
			pipeline.Options{Resolver: ops.NewOptimized(ops.Historical())}, EvalFrames); err != nil {
			return nil, err
		}
		if row.MobileQuant, err = evalClassifierAccuracy(e.Quant,
			pipeline.Options{Resolver: ops.NewOptimized(ops.Historical())}, EvalFrames); err != nil {
			return nil, err
		}
		if row.MobileQuantR, err = evalClassifierAccuracy(e.Quant,
			pipeline.Options{Resolver: ops.NewReference(ops.Historical())}, EvalFrames); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFigure5 prints the figure as a table.
func RenderFigure5(w io.Writer, rows []Figure5Row) {
	fmt.Fprintf(w, "Figure 5 — top-1 accuracy across deployment versions (historical kernels)\n")
	fmt.Fprintf(w, "%-18s %10s %8s %12s %15s\n", "model", "reference", "mobile", "mobile-quant", "mobile-quant-ref")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10.2f %8.2f %12.2f %15.2f\n", r.Model, r.Reference, r.Mobile, r.MobileQuant, r.MobileQuantR)
	}
}

// Figure5Fixed is the "after the fix" ablation: the same sweep on the
// repaired kernel build, showing quantization alone costs only a few points.
func Figure5Fixed() ([]Figure5Row, error) {
	var rows []Figure5Row
	for _, name := range Figure5Models() {
		e, err := zoo.Get(name)
		if err != nil {
			return nil, err
		}
		row := Figure5Row{Model: name}
		if row.Reference, err = evalClassifierAccuracy(e.Checkpoint,
			pipeline.Options{Resolver: ops.NewReference(ops.Fixed())}, EvalFrames); err != nil {
			return nil, err
		}
		if row.Mobile, err = evalClassifierAccuracy(e.Mobile,
			pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, EvalFrames); err != nil {
			return nil, err
		}
		if row.MobileQuant, err = evalClassifierAccuracy(e.Quant,
			pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, EvalFrames); err != nil {
			return nil, err
		}
		if row.MobileQuantR, err = evalClassifierAccuracy(e.Quant,
			pipeline.Options{Resolver: ops.NewReference(ops.Fixed())}, EvalFrames); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
