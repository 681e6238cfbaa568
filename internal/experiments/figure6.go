package experiments

import (
	"fmt"
	"io"

	"mlexray/internal/core"
	"mlexray/internal/graph"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/zoo"
)

// Figure6Series is one per-layer normalized-rMSE curve: a quantized model
// version (under one resolver) compared layer-by-layer against the float
// mobile baseline.
type Figure6Series struct {
	Model    string
	Resolver string
	Diffs    []core.LayerDiff
	// SpikeLayer is the first drift spike the validator localises.
	SpikeLayer string
	SpikeOp    string
}

// Figure6 reproduces the per-layer diagnosis of §4.4: for MobileNet v2 and
// v3, the quantized model's per-layer output drift against the float
// baseline under both resolvers. Expected shape: v2 spikes at the first
// DepthwiseConv2D under the optimized resolver only; v3 peaks at its
// AvgPool2D layers under both resolvers.
func Figure6(frames int) ([]Figure6Series, error) {
	if frames <= 0 {
		frames = 5
	}
	var out []Figure6Series
	for _, name := range []string{"mobilenetv2-mini", "mobilenetv3-mini"} {
		e, err := zoo.Get(name)
		if err != nil {
			return nil, err
		}
		refLog, err := perLayerLog(e.Mobile, ops.NewReference(ops.Fixed()), frames)
		if err != nil {
			return nil, err
		}
		for _, resolver := range []*ops.Resolver{ops.NewOptimized(ops.Historical()), ops.NewReference(ops.Historical())} {
			edgeLog, err := perLayerLog(e.Quant, resolver, frames)
			if err != nil {
				return nil, err
			}
			diffs, err := core.CompareLayers(edgeLog, refLog)
			if err != nil {
				return nil, err
			}
			s := Figure6Series{Model: name, Resolver: resolver.Name(), Diffs: diffs}
			if spike, ok := core.FirstSpike(diffs, 0.1, 3); ok {
				s.SpikeLayer = spike.Name
				s.SpikeOp = spike.OpType
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// perLayerLog runs the classification pipeline over the evaluation set with
// full per-layer capture, sharded across the replay pool.
func perLayerLog(m *graph.Model, resolver *ops.Resolver, frames int) (*core.Log, error) {
	return runImageTask("classification", m, resolver, pipeline.BugNone, frames, true)
}

// RenderFigure6 prints each series as (layer, op, nRMSE) rows with the
// localised spike.
func RenderFigure6(w io.Writer, series []Figure6Series) {
	fmt.Fprintf(w, "Figure 6 — per-layer normalized rMSE of quantized vs float baseline\n")
	for _, s := range series {
		fmt.Fprintf(w, "\n%s under %s resolver (spike: %s %s)\n", s.Model, s.Resolver, s.SpikeLayer, s.SpikeOp)
		for _, d := range s.Diffs {
			bar := ""
			n := int(d.NRMSE * 40)
			if n > 40 {
				n = 40
			}
			for i := 0; i < n; i++ {
				bar += "#"
			}
			fmt.Fprintf(w, "  [%3d] %-26s %-16s %7.3f %s\n", d.Index, d.Name, d.OpType, d.NRMSE, bar)
		}
	}
}

// Figure6Summary extracts the headline check: which layer each series
// spikes at.
func Figure6Summary(series []Figure6Series) map[string]string {
	out := map[string]string{}
	for _, s := range series {
		out[fmt.Sprintf("%s/%s", s.Model, s.Resolver)] = fmt.Sprintf("%s (%s)", s.SpikeLayer, s.SpikeOp)
	}
	return out
}
