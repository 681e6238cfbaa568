package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"mlexray/internal/convert"
	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/interp"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/tensor"
	"mlexray/internal/zoo"
)

// ---- Ablation: drift metric choice (DESIGN.md §4.1) ----

// AblationErrorMetricsRow reports, for one metric, which layer the
// first-spike localisation lands on.
type AblationErrorMetricsRow struct {
	Metric     string
	SpikeLayer string
	SpikeOp    string
}

// AblationErrorMetrics compares normalized rMSE against raw rMSE and
// max-abs error as the per-layer drift metric on the v2 depthwise-defect
// case. Normalized rMSE localises the defective op; unnormalized metrics
// are biased toward layers with large value ranges.
func AblationErrorMetrics() ([]AblationErrorMetricsRow, error) {
	e, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		return nil, err
	}
	refLog, err := perLayerLog(e.Mobile, ops.NewReference(ops.Fixed()), 3)
	if err != nil {
		return nil, err
	}
	edgeLog, err := perLayerLog(e.Quant, ops.NewOptimized(ops.Historical()), 3)
	if err != nil {
		return nil, err
	}
	diffs, err := core.CompareLayers(edgeLog, refLog)
	if err != nil {
		return nil, err
	}
	spikeBy := func(value func(core.LayerDiff) float64, threshold float64) (string, string) {
		prev := 0.0
		for _, d := range diffs {
			v := value(d)
			if v >= threshold && (prev <= 0 || v >= 3*prev) {
				return d.Name, d.OpType
			}
			prev = v
		}
		return "(none)", ""
	}
	var rows []AblationErrorMetricsRow
	l, op := spikeBy(func(d core.LayerDiff) float64 { return d.NRMSE }, 0.1)
	rows = append(rows, AblationErrorMetricsRow{"normalized rMSE", l, op})
	l, op = spikeBy(func(d core.LayerDiff) float64 { return d.RMSE }, 0.1)
	rows = append(rows, AblationErrorMetricsRow{"raw rMSE", l, op})
	l, op = spikeBy(func(d core.LayerDiff) float64 { return d.MaxAbs }, 0.5)
	rows = append(rows, AblationErrorMetricsRow{"max abs error", l, op})
	return rows, nil
}

// RenderAblationErrorMetrics prints the metric ablation.
func RenderAblationErrorMetrics(w io.Writer, rows []AblationErrorMetricsRow) {
	fmt.Fprintf(w, "Ablation — drift metric vs localisation (v2 quant, optimized resolver)\n")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s -> %s (%s)\n", r.Metric, r.SpikeLayer, r.SpikeOp)
	}
}

// ---- Ablation: per-channel vs per-tensor weight quantization (§2) ----

// AblationQuantRow is one quantization-option accuracy.
type AblationQuantRow struct {
	Option   string
	Accuracy float64
}

// AblationPerChannel quantizes MobileNet-v2 with per-channel versus
// per-tensor weight scales (fixed kernels, so quantization resolution is
// the only variable).
func AblationPerChannel() ([]AblationQuantRow, error) {
	e, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		return nil, err
	}
	calib := calibSet(e)
	var rows []AblationQuantRow
	for _, perChannel := range []bool{true, false} {
		opts := convert.DefaultQuantOptions()
		opts.WeightPerChannel = perChannel
		q, err := convert.Quantize(e.Mobile, calib, opts)
		if err != nil {
			return nil, err
		}
		acc, err := evalClassifierAccuracy(q, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, EvalFrames)
		if err != nil {
			return nil, err
		}
		name := "per-tensor weights"
		if perChannel {
			name = "per-channel weights"
		}
		rows = append(rows, AblationQuantRow{name, acc})
	}
	return rows, nil
}

// AblationCalibration quantizes with a corrupted representative dataset
// (one sensor-glitch sample) under strict min/max versus percentile-clipped
// calibration (§2's scale-calibration pitfall).
func AblationCalibration() ([]AblationQuantRow, error) {
	e, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		return nil, err
	}
	calib := calibSet(e)
	// Corrupt one calibration sample with a glitch pixel.
	bad := calib[0].Clone()
	bad.F[0] = 80
	calib = append(calib, bad)
	var rows []AblationQuantRow
	for _, clip := range []float64{0, 0.001} {
		opts := convert.DefaultQuantOptions()
		opts.ActClipPercentile = clip
		q, err := convert.Quantize(e.Mobile, calib, opts)
		if err != nil {
			return nil, err
		}
		acc, err := evalClassifierAccuracy(q, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, EvalFrames)
		if err != nil {
			return nil, err
		}
		name := "strict min/max"
		if clip > 0 {
			name = "0.1% percentile clip"
		}
		rows = append(rows, AblationQuantRow{name, acc})
	}
	return rows, nil
}

// AblationSymmetric compares asymmetric against symmetric activation
// quantization (§2: symmetric wastes range on skewed post-ReLU data).
func AblationSymmetric() ([]AblationQuantRow, error) {
	e, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		return nil, err
	}
	calib := calibSet(e)
	var rows []AblationQuantRow
	for _, sym := range []bool{false, true} {
		opts := convert.DefaultQuantOptions()
		opts.ActSymmetric = sym
		q, err := convert.Quantize(e.Mobile, calib, opts)
		if err != nil {
			return nil, err
		}
		acc, err := evalClassifierAccuracy(q, pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, EvalFrames)
		if err != nil {
			return nil, err
		}
		name := "asymmetric activations"
		if sym {
			name = "symmetric activations"
		}
		rows = append(rows, AblationQuantRow{name, acc})
	}
	return rows, nil
}

func calibSet(e *zoo.Entry) []*tensor.Tensor {
	pp, err := pipeline.CorrectImagePreproc(e.Mobile.Meta)
	if err != nil {
		return nil
	}
	var out []*tensor.Tensor
	for _, s := range datasets.SynthImageNet(901, 10) {
		out = append(out, pipeline.PreprocessImage(s.Image, e.Mobile.Meta, pp))
	}
	return out
}

// RenderAblationQuant prints a quantization-option ablation.
func RenderAblationQuant(w io.Writer, caption string, rows []AblationQuantRow) {
	fmt.Fprintf(w, "%s\n", caption)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s accuracy = %.2f\n", r.Option, r.Accuracy)
	}
}

// ---- Ablation: capture mode logging cost (DESIGN.md §4.2) ----

// AblationCaptureRow reports log bytes per frame for one capture mode.
type AblationCaptureRow struct {
	Mode          string
	BytesPerFrame int
}

// AblationCaptureMode measures the stats-only versus full-tensor log cost
// that separates Table 2's 0.41 KB/frame from Table 3's hundreds of MB.
func AblationCaptureMode() ([]AblationCaptureRow, error) {
	e, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		return nil, err
	}
	var rows []AblationCaptureRow
	for _, mode := range []core.CaptureMode{core.CaptureStats, core.CaptureFull} {
		mon := core.NewMonitor(core.WithCaptureMode(mode), core.WithPerLayer(true))
		cl, err := pipeline.NewClassifier(e.Mobile, pipeline.Options{Resolver: fixedOptimized(), Monitor: mon})
		if err != nil {
			return nil, err
		}
		const frames = 5
		for _, s := range datasets.SynthImageNet(5555, frames) {
			if _, _, err := cl.Classify(s.Image); err != nil {
				return nil, err
			}
		}
		n, err := mon.Log().SizeBytes()
		if err != nil {
			return nil, err
		}
		name := "stats-only"
		if mode == core.CaptureFull {
			name = "full tensors"
		}
		rows = append(rows, AblationCaptureRow{name, n / frames})
	}
	return rows, nil
}

// RenderAblationCapture prints the capture-mode ablation.
func RenderAblationCapture(w io.Writer, rows []AblationCaptureRow) {
	fmt.Fprintf(w, "Ablation — per-layer log cost by capture mode (per frame)\n")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %d bytes\n", r.Mode, r.BytesPerFrame)
	}
}

// ---- Ablation: telemetry log encoding ----

// AblationLogFormatRow reports one codec's cost on a full-capture per-layer
// log: serialized bytes per frame and encode nanoseconds per frame.
type AblationLogFormatRow struct {
	Format          core.LogFormat
	BytesPerFrame   int
	EncodeNsPerFrm  float64
	RecordsPerFrame int
}

// AblationLogFormat measures the JSONL versus binary encoding cost of
// full-tensor per-layer telemetry — the datapoint behind the codec redesign:
// the binary format drops the base64 expansion and the per-byte JSON
// escaping, so full-capture streaming pays a fraction of the JSONL cost. The
// log round-trips through each codec's streaming sink (read back with the
// auto-detecting reader) so the measured path is the one replays use.
func AblationLogFormat() ([]AblationLogFormatRow, error) {
	e, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		return nil, err
	}
	const frames = 4
	samples := datasets.SynthImageNet(5555, frames)
	mergedLog, err := replay.Classification(e.Mobile,
		pipeline.Options{Resolver: fixedOptimized()},
		replay.Images(samples),
		sweepOptions([]core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)}),
		nil)
	if err != nil {
		return nil, err
	}
	var rows []AblationLogFormatRow
	for _, format := range []core.LogFormat{core.FormatJSONL, core.FormatBinary} {
		var buf bytes.Buffer
		sink, err := core.NewLogSink(&buf, format)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for f := 1; f <= frames; f++ {
			if err := sink.WriteFrame(f, mergedLog.ByFrame(f)); err != nil {
				return nil, err
			}
		}
		if err := sink.Flush(); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		back, err := core.ReadLog(&buf)
		if err != nil {
			return nil, err
		}
		if len(back.Records) != len(mergedLog.Records) {
			return nil, fmt.Errorf("experiments: %v round trip lost records (%d vs %d)",
				format, len(back.Records), len(mergedLog.Records))
		}
		rows = append(rows, AblationLogFormatRow{
			Format:          format,
			BytesPerFrame:   sink.Bytes() / frames,
			EncodeNsPerFrm:  float64(elapsed.Nanoseconds()) / frames,
			RecordsPerFrame: sink.Records() / frames,
		})
	}
	return rows, nil
}

// RenderAblationLogFormat prints the log-encoding ablation.
func RenderAblationLogFormat(w io.Writer, rows []AblationLogFormatRow) {
	fmt.Fprintf(w, "Ablation — full-capture log encoding (per frame)\n")
	fmt.Fprintf(w, "  %-8s %12s %14s %10s\n", "format", "bytes/frm", "encode ns/frm", "records")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %12d %14.0f %10d\n", r.Format, r.BytesPerFrame, r.EncodeNsPerFrm, r.RecordsPerFrame)
	}
}

// ---- Ablation: kernel micro-kernel backend (DESIGN.md §10) ----

// AblationKernelRow reports one (backend, compute kind) cell of the
// kernel-backend ablation: invoke wall-clock per frame plus fidelity against
// the reference backend on the same frames.
type AblationKernelRow struct {
	Backend ops.Backend
	Kind    string
	// NsPerFrm is the interpreter invoke cost (preprocessing excluded — the
	// inputs are pre-tensorized so the column isolates the kernels).
	NsPerFrm float64
	// Top1Agree is the fraction of frames whose argmax matches the reference
	// backend's.
	Top1Agree float64
	// BitExact reports whether every output tensor is bitwise identical to
	// the reference backend's. Expected true everywhere except float32/tiled,
	// whose summation order is only validator-bounded (see ops.BackendTiled).
	BitExact bool
}

// AblationKernelBackend sweeps the kernel backends over the float and
// quantized mobilenetv2-mini, measuring per-frame invoke cost and output
// fidelity versus the reference backend. It is the table behind the backend
// seam's contract: quantized outputs are bit-exact on every backend, tiled
// float outputs are validator-bounded.
func AblationKernelBackend() ([]AblationKernelRow, error) {
	e, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		return nil, err
	}
	const frames = 6
	samples := datasets.SynthImageNet(5555, frames)
	var rows []AblationKernelRow
	for _, kind := range []string{"float32", "int8"} {
		m := e.Mobile
		if kind == "int8" {
			m = e.Quant
		}
		pp, err := pipeline.CorrectImagePreproc(m.Meta)
		if err != nil {
			return nil, err
		}
		inputs := make([]*tensor.Tensor, frames)
		for i, s := range samples {
			inputs[i] = pipeline.PreprocessImage(s.Image, m.Meta, pp)
		}
		outs := map[ops.Backend][]*tensor.Tensor{}
		ns := map[ops.Backend]float64{}
		for _, b := range ops.Backends() {
			ip, err := interp.New(m, fixedOptimized(), interp.WithBackend(b))
			if err != nil {
				return nil, err
			}
			got := make([]*tensor.Tensor, frames)
			start := time.Now()
			for i, in := range inputs {
				out, err := ip.Run(in)
				if err != nil {
					return nil, err
				}
				got[i] = out.Clone()
			}
			ns[b] = float64(time.Since(start).Nanoseconds()) / frames
			outs[b] = got
		}
		base := outs[ops.BackendReference]
		for _, b := range ops.Backends() {
			agree, exact := 0, true
			for i, out := range outs[b] {
				if out.ArgMax() == base[i].ArgMax() {
					agree++
				}
				if !tensorBitsEqual(out, base[i]) {
					exact = false
				}
			}
			rows = append(rows, AblationKernelRow{
				Backend:   b,
				Kind:      kind,
				NsPerFrm:  ns[b],
				Top1Agree: float64(agree) / frames,
				BitExact:  exact,
			})
		}
	}
	return rows, nil
}

// tensorBitsEqual reports bitwise equality of two same-dtype tensors.
func tensorBitsEqual(a, b *tensor.Tensor) bool {
	if a.DType != b.DType || a.Len() != b.Len() {
		return false
	}
	switch a.DType {
	case tensor.F32:
		for i, v := range a.F {
			if math.Float32bits(v) != math.Float32bits(b.F[i]) {
				return false
			}
		}
	case tensor.U8:
		return bytes.Equal(a.U, b.U)
	case tensor.I8:
		for i, v := range a.I {
			if v != b.I[i] {
				return false
			}
		}
	case tensor.I32:
		for i, v := range a.X {
			if v != b.X[i] {
				return false
			}
		}
	}
	return true
}

// RenderAblationKernel prints the kernel-backend ablation.
func RenderAblationKernel(w io.Writer, rows []AblationKernelRow) {
	fmt.Fprintf(w, "Ablation — kernel backend (mobilenetv2-mini, invoke only)\n")
	fmt.Fprintf(w, "  %-8s %-10s %12s %10s %9s\n", "kind", "backend", "ns/frm", "top1agree", "bitexact")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %-10s %12.0f %10.2f %9v\n", r.Kind, r.Backend, r.NsPerFrm, r.Top1Agree, r.BitExact)
	}
}
