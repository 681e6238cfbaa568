package runner

import (
	"runtime"
	"testing"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/zoo"
)

const benchFrames = 32

// benchPipeline builds the replay workload: full per-layer capture of the
// MobileNet-v2 classifier, the configuration the offline validation sweeps
// use.
func benchSamples(b *testing.B) ([]datasets.ImageSample, *pipeline.Classifier) {
	b.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		b.Fatal(err)
	}
	base, err := pipeline.NewClassifier(entry.Mobile, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())})
	if err != nil {
		b.Fatal(err)
	}
	return datasets.SynthImageNet(5555, benchFrames), base
}

// BenchmarkReplaySequential is the baseline: one pipeline, one monitor,
// frames in order — the pre-runner replay path.
func BenchmarkReplaySequential(b *testing.B) {
	samples, base := benchSamples(b)
	b.ReportMetric(float64(benchFrames), "frames/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon := core.NewMonitor(monOpts...)
		cl, err := base.Clone(mon)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range samples {
			if _, _, err := cl.Classify(s.Image); err != nil {
				b.Fatal(err)
			}
		}
		if got := len(mon.Log().Records); got == 0 {
			b.Fatal("no records")
		}
	}
}

// BenchmarkReplayParallel shards the same replay across GOMAXPROCS workers.
// On a multi-core host throughput scales with roughly the core count; on a
// single core it matches the sequential baseline (the scheduler overhead is
// per-frame, and a frame is a full model inference).
func BenchmarkReplayParallel(b *testing.B) {
	samples, base := benchSamples(b)
	workers := runtime.GOMAXPROCS(0)
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(float64(benchFrames), "frames/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := ReplayBatched(len(samples), func(mon *core.Monitor) (ProcessBatchFunc, error) {
			cl, err := base.Clone(mon)
			if err != nil {
				return nil, err
			}
			return PerFrame(mon, func(j int) error {
				_, _, err := cl.Classify(samples[j].Image)
				return err
			}), nil
		}, Options{Workers: workers, MonitorOptions: monOpts})
		if err != nil {
			b.Fatal(err)
		}
		if len(l.Records) == 0 {
			b.Fatal("no records")
		}
	}
}
