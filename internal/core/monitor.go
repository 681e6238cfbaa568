package core

import (
	"sync"
	"time"

	"mlexray/internal/interp"
	"mlexray/internal/quant"
	"mlexray/internal/tensor"
)

// Well-known record keys emitted by the monitor. User code may log any
// additional keys; the built-in assertions look for these.
const (
	KeyPreprocessOutput  = "preprocess/output"
	KeyModelInput        = "model/input"
	KeyModelOutput       = "model/output"
	KeyInferenceLatency  = "inference/latency_ns"
	KeyInferenceModeled  = "inference/modeled_latency_ns"
	KeySensorOrientation = "sensor/orientation_deg"

	keyLayerPrefix = "layer/"
)

// LayerOutputKey builds the per-layer output record key.
func LayerOutputKey(name string) string { return keyLayerPrefix + name + "/output" }

// LayerLatencyKey builds the per-layer latency record key.
func LayerLatencyKey(name string) string { return keyLayerPrefix + name + "/latency_ns" }

// CaptureMode selects the runtime logging depth: stats-only keeps overhead
// at the paper's 0.41 KB/frame (Table 2); full-tensor capture is the offline
// per-layer validation mode (Table 3/5).
type CaptureMode int

const (
	CaptureStats CaptureMode = iota
	CaptureFull
)

// MonitorOption configures a Monitor.
type MonitorOption func(*Monitor)

// WithCaptureMode sets stats-only vs full-tensor logging.
func WithCaptureMode(m CaptureMode) MonitorOption {
	return func(mon *Monitor) { mon.mode = m }
}

// WithPerLayer enables per-layer output and latency records (the offline
// validation mode).
func WithPerLayer(enabled bool) MonitorOption {
	return func(mon *Monitor) { mon.perLayer = enabled }
}

// WithSink puts the monitor in direct-to-sink spill mode: each frame's
// records stream to s as soon as the frame counter advances past it, so
// full-capture logs never accumulate tensor payloads in memory. Call
// Monitor.Flush after the last frame to spill the final frame and flush the
// sink. Spill-mode monitors are for sequential instrumentation loops; the
// parallel replay engine streams through its own collector sink instead
// (runner.Options.Sink), so do not combine the two.
func WithSink(s Sink) MonitorOption {
	return func(mon *Monitor) { mon.sink = s }
}

// Monitor is the EdgeML Monitor (§3.2, Fig. 7): the instrumentation object
// an app (or the reference pipeline) uses to produce telemetry. All methods
// are safe for concurrent use.
type Monitor struct {
	mu       sync.Mutex
	log      Log
	seq      int
	frame    int
	mode     CaptureMode
	perLayer bool
	sink     Sink
	sinkErr  error

	infStart time.Time
}

// NewMonitor constructs a Monitor. The default captures stats-only records
// and no per-layer detail — the lightweight always-on configuration.
func NewMonitor(opts ...MonitorOption) *Monitor {
	m := &Monitor{mode: CaptureStats}
	for _, o := range opts {
		o(m)
	}
	return m
}

// NextFrame advances the frame counter (one frame = one sensor capture /
// inference), spilling the completed frame when a sink is attached. Returns
// the new frame index.
func (m *Monitor) NextFrame() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spillLocked()
	m.frame++
	return m.frame
}

// spillLocked streams the buffered records of the current frame to the
// attached sink, if any. The first sink error is retained and reported by
// Flush; later frames are dropped rather than written out of order.
func (m *Monitor) spillLocked() {
	if m.sink == nil || len(m.log.Records) == 0 {
		return
	}
	recs := m.takeLocked()
	if m.sinkErr != nil {
		return
	}
	if err := m.sink.WriteFrame(m.frame, recs); err != nil {
		m.sinkErr = err
	}
}

// Flush spills any buffered records of the current (final) frame and flushes
// the attached sink. It reports the first error the sink returned. Without a
// sink it is a no-op. Call once after the last frame when the monitor was
// built WithSink.
func (m *Monitor) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spillLocked()
	if m.sinkErr != nil {
		return m.sinkErr
	}
	// Flush under the lock: the sink is not thread-safe and every other
	// touch (spillLocked's WriteFrame) happens while m.mu is held.
	if m.sink != nil {
		return m.sink.Flush()
	}
	return nil
}

// SetNextFrame positions the frame counter so that the next NextFrame call
// returns idx. Shard monitors in the parallel replay engine use this to tag
// records with global frame indices: a worker owning dataset frame g seeks
// to g+1 before invoking the pipeline, so its records carry exactly the
// frame number a sequential run would have assigned.
func (m *Monitor) SetNextFrame(idx int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spillLocked()
	m.frame = idx - 1
}

// Drain removes and returns all buffered records, leaving the sequence and
// frame counters untouched. The parallel replay engine drains each shard
// after every frame so per-shard buffers stay one frame deep regardless of
// replay length.
func (m *Monitor) Drain() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.takeLocked()
}

// takeLocked hands the buffered records away and starts the next buffer at
// their count: frames of one model log the same number of records, so the
// slice is sized once per frame instead of regrown by doubling.
func (m *Monitor) takeLocked() []Record {
	recs := m.log.Records
	m.log.Records = make([]Record, 0, len(recs))
	return recs
}

func (m *Monitor) append(r Record) {
	m.mu.Lock()
	r.Seq = m.seq
	r.Frame = m.frame
	m.seq++
	m.log.Records = append(m.log.Records, r)
	m.mu.Unlock()
}

// LogTensor records a tensor under the given key (honouring the capture
// mode).
func (m *Monitor) LogTensor(key string, t *tensor.Tensor) {
	r := Record{Key: key}
	r.EncodeTensor(t, m.mode == CaptureFull)
	m.append(r)
}

// LogTensorFull records a tensor with its full payload regardless of the
// capture mode (used for preprocessing outputs, which assertions need
// verbatim).
func (m *Monitor) LogTensorFull(key string, t *tensor.Tensor) {
	r := Record{Key: key}
	r.EncodeTensor(t, true)
	m.append(r)
}

// LogMetric records a scalar performance metric.
func (m *Monitor) LogMetric(key string, value float64, unit string) {
	m.append(Record{Key: key, Kind: KindMetric, Value: value, Unit: unit})
}

// LogSensor records a peripheral sensor reading (orientation, motion,
// ambient light ... §3.2's third telemetry class).
func (m *Monitor) LogSensor(key string, value float64, unit string) {
	m.append(Record{Key: key, Kind: KindSensor, Value: value, Unit: unit})
}

// OnInferenceStart marks the start of one model invocation — the paper's
// MLEXray->on_inf_start().
func (m *Monitor) OnInferenceStart() {
	m.mu.Lock()
	m.infStart = time.Now()
	m.mu.Unlock()
}

// OnInferenceStop closes the invocation opened by OnInferenceStart,
// recording end-to-end latency — the paper's on_inf_stop(&interpreter). The
// interpreter argument supplies the model output and modeled device timing;
// it may be nil when only wall-clock is wanted.
func (m *Monitor) OnInferenceStop(ip *interp.Interpreter) {
	m.mu.Lock()
	elapsed := time.Since(m.infStart)
	m.mu.Unlock()
	m.LogMetric(KeyInferenceLatency, float64(elapsed.Nanoseconds()), "ns")
	if ip == nil {
		return
	}
	if st := ip.LastInvokeStats(); st.Modeled > 0 {
		m.LogMetric(KeyInferenceModeled, float64(st.Modeled.Nanoseconds()), "ns")
	}
	if out, err := ip.Output(0); err == nil {
		r := Record{Key: KeyModelOutput}
		r.EncodeTensor(out, true) // outputs are small; always keep them whole
		m.append(r)
	}
}

// OnBatchFrame closes one frame element of a batched invocation — the
// batched-execution analogue of OnInferenceStop. The caller passes the
// per-frame stats (interp.Batch.FrameStats) and that element's output view;
// the records emitted are identical in kind and order to a sequential
// OnInferenceStop: end-to-end latency, modeled latency when a device model
// is attached, then the full model output.
func (m *Monitor) OnBatchFrame(stats interp.InvokeStats, out *tensor.Tensor) {
	m.LogMetric(KeyInferenceLatency, float64(stats.Measured.Nanoseconds()), "ns")
	if stats.Modeled > 0 {
		m.LogMetric(KeyInferenceModeled, float64(stats.Modeled.Nanoseconds()), "ns")
	}
	if out != nil {
		r := Record{Key: KeyModelOutput}
		r.EncodeTensor(out, true) // outputs are small; always keep them whole
		m.append(r)
	}
}

// LayerHook returns an interpreter hook that records per-layer outputs and
// latency when per-layer capture is enabled, and always aggregates latency
// by layer for the Table 4 style breakdowns.
func (m *Monitor) LayerHook() interp.NodeHook {
	return func(ev interp.NodeEvent) {
		if !m.perLayer {
			return
		}
		r := Record{
			Key:        LayerOutputKey(ev.Node.Name),
			LayerIndex: ev.Index,
			LayerName:  ev.Node.Name,
			OpType:     ev.Node.Op.String(),
		}
		// Quantized captures are stored raw (1 byte/element) with their
		// scale/zero-point; decode dequantizes, so per-layer logs compare in
		// real units across float and quantized versions of a model while
		// keeping the on-disk size advantage of integer models.
		out := ev.Outputs[0]
		if out.DType == tensor.U8 && len(ev.OutQuant) > 0 && ev.OutQuant[0] != nil {
			r.QScale = ev.OutQuant[0].Scale(0)
			r.QZero = ev.OutQuant[0].ZeroPoint(0)
			// Stats must reflect real units for range-normalized drift.
			if m.mode != CaptureFull {
				deq := quant.DequantizeTensorU8(out, ev.OutQuant[0])
				r.EncodeTensor(deq, false)
				m.append(r)
				m.appendLayerLatency(ev)
				return
			}
		}
		r.EncodeTensor(out, m.mode == CaptureFull)
		if r.QScale != 0 && r.Stats != nil {
			// Rewrite stats in dequantized units.
			s := *r.Stats
			s.Min = r.QScale * (s.Min - float64(r.QZero))
			s.Max = r.QScale * (s.Max - float64(r.QZero))
			s.Mean = r.QScale * (s.Mean - float64(r.QZero))
			s.RMS = 0 // raw RMS does not transform linearly; recompute on decode when needed
			r.Stats = &s
		}
		m.append(r)
		m.appendLayerLatency(ev)
	}
}

func (m *Monitor) appendLayerLatency(ev interp.NodeEvent) {
	lat := ev.Measured
	unit := "ns"
	if ev.Modeled > 0 {
		lat = ev.Modeled
		unit = "ns-modeled"
	}
	m.append(Record{
		Key:        LayerLatencyKey(ev.Node.Name),
		Kind:       KindMetric,
		LayerIndex: ev.Index,
		LayerName:  ev.Node.Name,
		OpType:     ev.Node.Op.String(),
		Value:      float64(lat.Nanoseconds()),
		Unit:       unit,
	})
}

// Log returns the accumulated log. The returned value shares storage with
// the monitor; callers that keep recording should copy it. In spill mode
// (WithSink) only the not-yet-spilled records of the current frame are
// buffered — the full log lives wherever the sink streamed it.
func (m *Monitor) Log() *Log {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &Log{Records: m.log.Records}
}

// Reset clears all recorded telemetry and counters. In spill mode the sink
// is detached (without a final spill — Reset discards telemetry): the
// restarted frame numbering would violate the sink's increasing-frame-order
// contract, and an already-written stream cannot be rewound. Flush before
// Reset to keep what was captured; attach a fresh sink by constructing a
// new Monitor.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.log = Log{}
	m.seq = 0
	m.frame = 0
	m.sink = nil
	m.sinkErr = nil
}

// MemoryFootprintBytes estimates the monitor's buffer memory: the sum of
// all record payloads currently held.
func (m *Monitor) MemoryFootprintBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.MemoryFootprintBytes()
}
