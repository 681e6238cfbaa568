package replay

import (
	"fmt"
	"io"
	"net/http/httptest"
	"testing"

	"mlexray/internal/core"
	"mlexray/internal/device"
	"mlexray/internal/ingest"
	"mlexray/internal/interp"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/runner"
	"mlexray/internal/tensor"
	"mlexray/internal/zoo"
)

// The replay-engine benchmarks: end-to-end frames/sec of the batched
// parallel engine at several batch sizes, and the interpreter-only invoke
// cost (run with -benchmem: steady-state Invoke is allocation-free).

// benchFrames is long enough that per-replica construction (the rebatched
// interpreter arena grows with the batch size) amortizes the way it does in
// real dataset replays.
const benchFrames = 256

// benchReplay replays the MobileNet-v2 workload uninstrumented (the
// accuracy-eval configuration — pure pipeline throughput, no telemetry
// encoding on the hot path).
func benchReplay(b *testing.B, workers, batch int) {
	b.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		b.Fatal(err)
	}
	images := testImages(b, benchFrames)
	popts := pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}
	ropts := runner.Options{Workers: workers, BatchFrames: batch}
	b.ReportMetric(float64(benchFrames), "frames/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Classification(entry.Mobile, popts, images, ropts, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchFrames), "ns/frame")
}

// BenchmarkReplayBatch measures the batched engine on a single worker, so
// the batch-size axis is isolated from parallel speedup.
func BenchmarkReplayBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchReplay(b, 1, batch)
		})
	}
}

// BenchmarkReplayBatchParallel composes batching with the worker pool.
func BenchmarkReplayBatchParallel(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchReplay(b, 0, batch)
		})
	}
}

// benchReplayFleet measures the fleet scheduler's end-to-end throughput on
// a homogeneous fleet of ndev single-worker batched devices (uninstrumented,
// like benchReplay, so the scheduler and not the telemetry encode is the
// axis). ns/frame at 1, 2 and 4 devices is the scaling datapoint
// BENCH_replay.json tracks as replay_fleet_devN.
func benchReplayFleet(b *testing.B, ndev int) {
	b.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		b.Fatal(err)
	}
	images := testImages(b, benchFrames)
	popts := pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}
	b.ReportMetric(float64(benchFrames), "frames/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		devs := make([]runner.DeviceSpec, ndev)
		for d := range devs {
			devs[d] = runner.DeviceSpec{Profile: device.Pixel4(), Workers: 1, BatchFrames: 8}
		}
		fleet := &runner.Fleet{Devices: devs, Policy: runner.Contiguous{}}
		if _, err := FleetClassification(entry.Mobile, popts, images, fleet, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchFrames), "ns/frame")
}

// BenchmarkReplayFleet scales the simulated device count: each device runs
// one worker, so wall-clock throughput should improve with the fleet size
// on a multi-core host.
func BenchmarkReplayFleet(b *testing.B) {
	for _, ndev := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("devices=%d", ndev), func(b *testing.B) {
			benchReplayFleet(b, ndev)
		})
	}
}

// fullCaptureFrames sizes the full-capture benchmarks: per-layer tensor
// telemetry is megabytes per frame, so the encode path dominates long before
// the 256-frame accuracy-eval figure.
const fullCaptureFrames = 64

// benchReplayFullCapture replays with full per-layer capture streamed
// through a log sink — the edgerun/refrun configuration — and reports
// ns/frame and serialized bytes/frame for the chosen encoding. Workers
// default to all cores, as the CLIs do: compute parallelizes while the
// collector serializes encoding, so the codec is the bottleneck this
// benchmark isolates.
func benchReplayFullCapture(b *testing.B, format core.LogFormat) {
	benchReplayFullCaptureSink(b, func() core.LogSink {
		sink, err := core.NewLogSink(io.Discard, format)
		if err != nil {
			b.Fatal(err)
		}
		return sink
	})
}

// serialCollectorSink hides the JSONL sink's FramePreEncoder capability so
// the replay collector serializes every record itself — the pre-parallel-
// encode behavior the worker pre-marshal stage is measured against.
type serialCollectorSink struct{ core.LogSink }

// benchReplayFullCaptureSerialJSONL is the JSONL full-capture benchmark with
// the parallel encode stage disabled.
func benchReplayFullCaptureSerialJSONL(b *testing.B) {
	benchReplayFullCaptureSink(b, func() core.LogSink {
		return serialCollectorSink{core.NewJSONLSink(io.Discard)}
	})
}

func benchReplayFullCaptureSink(b *testing.B, mkSink func() core.LogSink) {
	b.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		b.Fatal(err)
	}
	images := testImages(b, fullCaptureFrames)
	popts := pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}
	b.ReportMetric(float64(fullCaptureFrames), "frames/op")
	var bytesPerFrame float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := mkSink()
		ropts := runner.Options{
			BatchFrames:    8,
			MonitorOptions: []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)},
			Sink:           sink,
			DiscardLog:     true,
		}
		if _, err := Classification(entry.Mobile, popts, images, ropts, nil); err != nil {
			b.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			b.Fatal(err)
		}
		bytesPerFrame = float64(sink.Bytes()) / float64(fullCaptureFrames)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fullCaptureFrames), "ns/frame")
	b.ReportMetric(bytesPerFrame, "log-bytes/frame")
}

// BenchmarkReplayFullCapture compares the two log encodings under full
// per-layer capture — the encoding datapoint of the perf trajectory — plus
// the JSONL path with its parallel encode stage disabled, isolating what
// the worker pre-marshal stage buys on multi-core hosts.
func BenchmarkReplayFullCapture(b *testing.B) {
	for _, format := range []core.LogFormat{core.FormatJSONL, core.FormatBinary} {
		b.Run(format.String(), func(b *testing.B) {
			benchReplayFullCapture(b, format)
		})
	}
	b.Run("jsonl-serial-collector", benchReplayFullCaptureSerialJSONL)
}

// BenchmarkEncodeJSONL is the JSONL encode path on its own: one real
// full-capture frame (every layer's tensor, ~127 KiB of payload) through a
// warmed encoder per iteration. Run with -benchmem: ns/op is ns/frame, and
// allocs/op must read 0.
func BenchmarkEncodeJSONL(b *testing.B) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		b.Fatal(err)
	}
	frame, err := Classification(entry.Mobile,
		pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, testImages(b, 1),
		runner.Options{MonitorOptions: []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	size, err := frame.SizeBytes()
	if err != nil {
		b.Fatal(err)
	}
	enc := core.NewJSONLEncoder(io.Discard)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range frame.Records {
			if err := enc.EncodeRecord(&frame.Records[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// ingestFrames sizes the upload benchmark (full-capture streams are
// megabytes per frame; transport and incremental validation dominate).
const ingestFrames = 32

// benchIngestUpload measures the device→collector hot path: one
// pre-captured full-capture stream per iteration encodes (binary),
// optionally gzips, POSTs to a live in-process collector, and validates
// incrementally against the same log as reference. Reports ns/frame,
// frames/sec and wire bytes/frame. instrumented toggles the collector's
// self-telemetry (metrics + tracing); the off state is the baseline the
// instrumentation-overhead pin is measured against.
func benchIngestUpload(b *testing.B, gz bool, dataDir string, instrumented bool) {
	b.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		b.Fatal(err)
	}
	images := testImages(b, ingestFrames)
	log, err := Classification(entry.Mobile,
		pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, images,
		runner.Options{
			BatchFrames:    8,
			MonitorOptions: []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)},
		}, nil)
	if err != nil {
		b.Fatal(err)
	}
	var groups [][]core.Record
	start := 0
	for start < len(log.Records) {
		end := start
		for end < len(log.Records) && log.Records[end].Frame == log.Records[start].Frame {
			end++
		}
		groups = append(groups, log.Records[start:end])
		start = end
	}
	srv, err := ingest.NewServer(ingest.ServerOptions{Ref: log, DataDir: dataDir, DisableMetrics: !instrumented})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wirePerFrame float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, err := ingest.NewRemoteSink(ingest.SinkOptions{
			URL: ts.URL, Device: fmt.Sprintf("bench-%d", i),
			Format: core.FormatBinary, Gzip: gz,
		})
		if err != nil {
			b.Fatal(err)
		}
		for g, recs := range groups {
			if err := sink.WriteFrame(g, recs); err != nil {
				b.Fatal(err)
			}
		}
		if err := sink.Flush(); err != nil {
			b.Fatal(err)
		}
		wirePerFrame = float64(sink.Bytes()) / float64(ingestFrames)
	}
	b.StopTimer()
	nsPerFrame := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(ingestFrames)
	b.ReportMetric(nsPerFrame, "ns/frame")
	b.ReportMetric(1e9/nsPerFrame, "frames/sec")
	b.ReportMetric(wirePerFrame, "wire-bytes/frame")
}

// BenchmarkIngestUpload measures collector ingestion throughput — binary
// chunks with and without gzip, plus the durable (write-ahead-logged)
// collector — the ingest_binary[_gzip|_durable] datapoints of
// BENCH_replay.json. The durable variant prices the fsync-before-ack
// barrier against the in-memory binary baseline, and the instrumented
// variant prices self-telemetry (metrics + tracing) against the bare
// collector — pinned under 3% in the artifact test.
func BenchmarkIngestUpload(b *testing.B) {
	b.Run("binary", func(b *testing.B) { benchIngestUpload(b, false, "", false) })
	b.Run("binary-gzip", func(b *testing.B) { benchIngestUpload(b, true, "", false) })
	b.Run("binary-durable", func(b *testing.B) { benchIngestUpload(b, false, b.TempDir(), false) })
	b.Run("binary-instrumented", func(b *testing.B) { benchIngestUpload(b, false, "", true) })
}

// benchInvokeBackend measures the interpreter hot loop under one kernel
// backend. quant selects the post-training full-integer model (the int8
// packed path); allocs/op must be 0 in steady state for every backend.
func benchInvokeBackend(b *testing.B, backend ops.Backend, quant bool) {
	b.Helper()
	benchInvokeConfig(b, backend, quant, ops.Fixed())
}

// benchInvokeConfig is benchInvokeBackend under the given kernel config.
func benchInvokeConfig(b *testing.B, backend ops.Backend, quant bool, cfg ops.Config) {
	b.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		b.Fatal(err)
	}
	m := entry.Mobile
	if quant {
		m = entry.Quant
	}
	in := tensor.New(tensor.F32, 1, m.Meta.InputH, m.Meta.InputW, m.Meta.InputC)
	in.Fill(0.3)
	ip, err := interp.New(m, ops.NewOptimized(cfg), interp.WithBackend(backend))
	if err != nil {
		b.Fatal(err)
	}
	if err := ip.SetInput(0, in); err != nil {
		b.Fatal(err)
	}
	if err := ip.Invoke(); err != nil { // warm kernel caches (packed weights)
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ip.Invoke(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
}

// BenchmarkInvokeGemm races the GEMM kernel backends on the interpreter hot
// loop: the float and the quantized model under reference vs tiled, the
// quantized one under the fixed kernels and under ops.Historical() — the
// resolver `exray -quant` and the exray_quant workload run. These
// configurations feed the invoke_gemm_* entries of BENCH_replay.json.
func BenchmarkInvokeGemm(b *testing.B) {
	for _, backend := range ops.Backends() {
		b.Run("float/"+backend.String(), func(b *testing.B) {
			benchInvokeBackend(b, backend, false)
		})
		b.Run("quant/"+backend.String(), func(b *testing.B) {
			benchInvokeBackend(b, backend, true)
		})
		b.Run("quant-historical/"+backend.String(), func(b *testing.B) {
			benchInvokeConfig(b, backend, true, ops.Historical())
		})
	}
}

// BenchmarkInvoke measures the interpreter hot loop alone on the
// optimized-resolver MobileNet path. ns/frame is the per-frame cost (the
// batch=N invoke runs N frames); allocs/op must be 0 in steady state.
func BenchmarkInvoke(b *testing.B) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		b.Fatal(err)
	}
	m := entry.Mobile
	in := tensor.New(tensor.F32, 1, m.Meta.InputH, m.Meta.InputW, m.Meta.InputC)
	in.Fill(0.3)

	b.Run("batch=1", func(b *testing.B) {
		ip, err := interp.New(m, ops.NewOptimized(ops.Fixed()))
		if err != nil {
			b.Fatal(err)
		}
		if err := ip.SetInput(0, in); err != nil {
			b.Fatal(err)
		}
		if err := ip.Invoke(); err != nil { // warm kernel caches
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ip.Invoke(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	})
	for _, batch := range []int{8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			bp, err := interp.NewBatch(m, batch, ops.NewOptimized(ops.Fixed()))
			if err != nil {
				b.Fatal(err)
			}
			for e := 0; e < batch; e++ {
				if err := bp.SetInputElem(0, e, in); err != nil {
					b.Fatal(err)
				}
			}
			if err := bp.Invoke(); err != nil { // warm kernel caches
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bp.Invoke(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch), "ns/frame")
		})
	}
}
