// Package experiments regenerates every table and figure of the paper's
// evaluation (and appendix) against the simulated edge stack. Each
// experiment returns structured rows and offers a text renderer; the root
// bench harness and cmd/benchtab drive them. EXPERIMENTS.md records the
// paper-vs-measured comparison for each.
//
// All dataset sweeps run on the parallel replay engine (internal/runner):
// frames shard across ReplayWorkers workers, each owning a pipeline replica,
// and shard telemetry merges deterministically by frame index — so every
// number in every table is identical to a sequential run while the suite
// scales with the core count. Classification sweeps additionally run on the
// batched inference path (internal/replay + pipeline.BatchClassifier):
// workers execute ReplayBatch frames per interpreter invoke, amortizing
// per-node dispatch, with telemetry still byte-identical to sequential.
package experiments

import (
	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/graph"
	"mlexray/internal/metrics"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

// EvalFrames is the evaluation-set size for accuracy experiments: large
// enough for stable estimates, small enough to keep the full suite fast.
// Tests reduce it under -short.
var EvalFrames = 120

// ReplayWorkers is the worker-pool size the sweeps hand to the parallel
// replay engine; 0 means GOMAXPROCS. Results are identical for any value.
var ReplayWorkers = 0

// ReplayBatch is the frame-batch size per worker dispatch. Classification
// sweeps run whole batches through single batched interpreter invokes;
// other tasks batch dispatch only. Results are identical for any value.
var ReplayBatch = 8

// sweepOptions are the runner options every sweep shares.
func sweepOptions(monOpts []core.MonitorOption) runner.Options {
	return runner.Options{Workers: ReplayWorkers, BatchFrames: ReplayBatch, MonitorOptions: monOpts}
}

// evalClassifierAccuracy measures top-1 accuracy of a model version through
// a pipeline with the given options, sharding frame batches across the
// replay pool on the batched inference path. Per-frame results land in
// frame-indexed slots, so worker scheduling cannot perturb the metric.
// Accuracy evals discard telemetry (nil MonitorOptions), so replicas run
// uninstrumented — no per-frame tensor-stats cost on the hot path.
func evalClassifierAccuracy(m *graph.Model, opts pipeline.Options, n int) (float64, error) {
	samples := datasets.SynthImageNet(5555, n)
	preds := make([]int, len(samples))
	labels := make([]int, len(samples))
	_, err := replay.Classification(m, opts, replay.Images(samples),
		sweepOptions(nil),
		func(i int, r replay.ClassifyResult) error {
			preds[i], labels[i] = r.Pred, samples[i].Label
			return nil
		})
	if err != nil {
		return 0, err
	}
	return metrics.Top1(preds, labels)
}

// fixedOptimized is the resolver an app uses after all kernel fixes — the
// baseline for preprocessing experiments, isolating preprocessing effects
// from kernel defects.
func fixedOptimized() *ops.Resolver { return ops.NewOptimized(ops.Fixed()) }

// classifierZoo resolves the Figure 4a / Figure 5 model list.
func classifierZoo() ([]*zoo.Entry, error) {
	var out []*zoo.Entry
	for _, name := range zoo.ClassifierNames() {
		e, err := zoo.Get(name)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
