package core

import (
	"sync"
	"sync/atomic"
	"time"

	"mlexray/internal/graph"
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
//
// A spilled frame is lent to the sink, not given to it (see Sink): the
// monitor captures every frame into the same record buffer and payload slab
// and overwrites them as soon as WriteFrame returns.
func WithSink(s Sink) MonitorOption {
	return func(mon *Monitor) { mon.sink, mon.lendFrames = s, 1 }
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

	// Lending (lendFrames > 0: spill mode, or between Lend and DrainLent):
	// nothing keeps the records past the sink's WriteFrame, so full-capture
	// payloads are capacity-clipped sub-slices of one slab per range and
	// slab and record buffer come back through Capture.Recycle instead of being
	// allocated per tensor and per drain. lendFrames is the range length a
	// fresh slab is sized for, frameBytes the payload bytes of the largest
	// frame captured so far, curBytes the running count of the open frame,
	// rangeRecs the record count of the last range drained.
	lendFrames int
	slab       []byte
	free       []Capture
	frameBytes int
	curBytes   int
	rangeRecs  int

	infStart time.Time
}

// Capture is one range of records drained from a lending monitor (Lend,
// DrainLent). The records and every payload in them are on loan: they are
// valid until Recycle hands the capture back, and whatever outlives that must
// have been copied. The zero Capture, and one whose Records were set by hand,
// is on loan from nobody: Recycle does nothing.
type Capture struct {
	Records []Record
	slab    []byte
	from    *Monitor
}

// scribbleRecycled makes every recycle overwrite what it takes back, so a
// reader that kept an alias past its loan sees 0xA5 bytes and zero records
// instead of plausible stale telemetry. Tests only.
var scribbleRecycled atomic.Bool

// ScribbleRecycledCaptures is the test hook enforcing the Sink no-retention
// rule: while on, a recycled capture's slab is filled with 0xA5 and its
// record buffer zeroed before either is reused, so the byte-identity pins
// fail on any alias held past WriteFrame. It returns the previous setting.
func ScribbleRecycledCaptures(on bool) (was bool) { return scribbleRecycled.Swap(on) }

// reclaim prepares a capture's buffers for reuse.
func (c Capture) reclaim() Capture {
	recs, slab := c.Records[:cap(c.Records)], c.slab[:cap(c.slab)]
	if scribbleRecycled.Load() {
		for i := range slab {
			slab[i] = 0xA5
		}
		clear(recs)
	}
	return Capture{Records: recs[:0], slab: slab[:0], from: c.from}
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
	m.endFrameLocked()
	m.frame++
	return m.frame
}

// endFrameLocked closes the current frame: its payload byte count becomes
// the slab sizing estimate if it is the largest so far, and in spill mode
// its buffered records stream to the attached sink, after which their
// buffers are reused for the next frame. The first sink error is retained and
// reported by Flush; later frames are dropped rather than written out of
// order.
func (m *Monitor) endFrameLocked() {
	if m.curBytes > m.frameBytes {
		m.frameBytes = m.curBytes
	}
	m.curBytes = 0
	if m.sink == nil || len(m.log.Records) == 0 {
		return
	}
	if m.sinkErr == nil {
		m.sinkErr = m.sink.WriteFrame(m.frame, m.log.Records)
	}
	c := Capture{Records: m.log.Records, slab: m.slab}.reclaim()
	m.log.Records, m.slab = c.Records, c.slab
}

// Flush spills any buffered records of the current (final) frame and flushes
// the attached sink. It reports the first error the sink returned. Without a
// sink it is a no-op. Call once after the last frame when the monitor was
// built WithSink.
func (m *Monitor) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.endFrameLocked()
	if m.sinkErr != nil {
		return m.sinkErr
	}
	// Flush under the lock: the sink is not thread-safe and every other
	// touch (endFrameLocked's WriteFrame) happens while m.mu is held.
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
	m.endFrameLocked()
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
// slice is sized once per frame instead of regrown by doubling. Payloads of
// a lending monitor go with the records — the slab is never reused behind a
// caller that was given ownership.
func (m *Monitor) takeLocked() []Record {
	recs := m.log.Records
	m.log.Records = make([]Record, 0, len(recs))
	m.slab = nil
	return recs
}

// Lend opens a lent range of the given number of frames: until DrainLent the
// monitor captures into a record buffer and a payload slab taken from its
// free list (allocated, the slab sized for the whole range, only while the
// list is empty — so a monitor owns as many buffers as ranges were ever on
// loan at once, and no more). The parallel replay engine lends when it
// already knows nothing keeps the records: a sink is attached and the merged
// log is discarded.
func (m *Monitor) Lend(frames int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lendFrames = frames
	if len(m.log.Records) > 0 {
		return // records logged outside any range: the buffer holding them is in use
	}
	if n := len(m.free); n > 0 {
		m.log.Records, m.slab = m.free[n-1].Records, m.free[n-1].slab
		m.free = m.free[:n-1]
	} else {
		m.log.Records = make([]Record, 0, m.rangeRecs)
	}
}

// DrainLent closes the range opened by Lend and returns its records, on loan
// until the capture's Recycle.
func (m *Monitor) DrainLent() Capture {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.endFrameLocked()
	c := Capture{Records: m.log.Records, slab: m.slab, from: m}
	m.log.Records, m.slab, m.lendFrames, m.rangeRecs = nil, nil, 0, len(c.Records)
	return c
}

// Recycle ends the capture's loan: its buffers go back on its monitor's free
// list for a later range. Safe to call from another goroutine than the one
// capturing.
func (c Capture) Recycle() {
	m := c.from
	if m == nil {
		return
	}
	c = c.reclaim()
	m.mu.Lock()
	m.free = append(m.free, c)
	m.mu.Unlock()
}

func (m *Monitor) append(r Record) {
	m.mu.Lock()
	m.appendLocked(r)
	m.mu.Unlock()
}

func (m *Monitor) appendLocked(r Record) {
	r.Seq = m.seq
	r.Frame = m.frame
	m.seq++
	m.log.Records = append(m.log.Records, r)
}

// appendTensor appends a record describeTensor has filled, capturing t's
// payload when the record is a full capture: into a buffer of its own, or,
// while lending, into the range's slab.
func (m *Monitor) appendTensor(r Record, t *tensor.Tensor) {
	m.mu.Lock()
	if r.Kind == KindTensor {
		r.Payload = appendTensorLE(m.payloadBufLocked(t.Bytes()), t)
	}
	m.appendLocked(r)
	m.mu.Unlock()
}

// payloadBufLocked returns an empty buffer with room for exactly n bytes. A
// lending monitor cuts it from the slab, clipped so that no append through
// one payload can reach the next. A slab without room is left to the records
// already pointing into it and replaced by one sized for the whole range at
// the largest frame seen — which, until a first frame has completed, is
// nothing, so that frame's tensors each get a buffer of their own size and
// no slab is ever grown by doubling.
func (m *Monitor) payloadBufLocked(n int) []byte {
	if m.lendFrames == 0 {
		return make([]byte, 0, n)
	}
	m.curBytes += n
	if cap(m.slab)-len(m.slab) < n {
		m.slab = make([]byte, 0, max(n, m.frameBytes*m.lendFrames))
	}
	off := len(m.slab)
	m.slab = m.slab[:off+n]
	return m.slab[off : off : off+n]
}

// LogTensor records a tensor under the given key (honouring the capture
// mode).
func (m *Monitor) LogTensor(key string, t *tensor.Tensor) {
	r := Record{Key: key}
	r.describeTensor(t, m.mode == CaptureFull)
	m.appendTensor(r, t)
}

// LogTensorFull records a tensor with its full payload regardless of the
// capture mode (used for preprocessing outputs, which assertions need
// verbatim).
func (m *Monitor) LogTensorFull(key string, t *tensor.Tensor) {
	r := Record{Key: key}
	r.describeTensor(t, true)
	m.appendTensor(r, t)
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
		m.LogTensorFull(KeyModelOutput, out) // outputs are small; always keep them whole
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
		m.LogTensorFull(KeyModelOutput, out) // outputs are small; always keep them whole
	}
}

// LayerHook returns an interpreter hook that records per-layer outputs and
// latency when per-layer capture is enabled, and always aggregates latency
// by layer for the Table 4 style breakdowns.
func (m *Monitor) LayerHook() interp.NodeHook {
	// The strings a node's records carry are built once per node index, not
	// per record: the hook sees the same nodes every frame.
	type nodeStrings struct {
		node         *graph.Node
		out, lat, op string
	}
	var memo []nodeStrings
	return func(ev interp.NodeEvent) {
		if !m.perLayer {
			return
		}
		if ev.Index >= len(memo) {
			memo = append(memo, make([]nodeStrings, ev.Index+1-len(memo))...)
		}
		ns := &memo[ev.Index]
		if ns.node != ev.Node {
			*ns = nodeStrings{ev.Node, LayerOutputKey(ev.Node.Name), LayerLatencyKey(ev.Node.Name), ev.Node.Op.String()}
		}
		lat := Record{
			Key:        ns.lat,
			Kind:       KindMetric,
			LayerIndex: ev.Index,
			LayerName:  ev.Node.Name,
			OpType:     ns.op,
			Value:      float64(ev.Measured.Nanoseconds()),
			Unit:       "ns",
		}
		if ev.Modeled > 0 {
			lat.Value, lat.Unit = float64(ev.Modeled.Nanoseconds()), "ns-modeled"
		}
		r := Record{
			Key:        ns.out,
			LayerIndex: ev.Index,
			LayerName:  ev.Node.Name,
			OpType:     ns.op,
		}
		// Quantized captures are stored raw (1 byte/element) with their
		// scale/zero-point; decode dequantizes, so per-layer logs compare in
		// real units across float and quantized versions of a model while
		// keeping the on-disk size advantage of integer models. A stats-only
		// record summarises the dequantized tensor, in the same real units.
		out := ev.Outputs[0]
		if out.DType == tensor.U8 && len(ev.OutQuant) > 0 && ev.OutQuant[0] != nil {
			r.QScale = ev.OutQuant[0].Scale(0)
			r.QZero = ev.OutQuant[0].ZeroPoint(0)
			if m.mode != CaptureFull {
				out = quant.DequantizeTensorU8(out, ev.OutQuant[0])
			}
		}
		r.describeTensor(out, m.mode == CaptureFull)
		m.appendTensor(r, out)
		m.append(lat)
	}
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
	m.lendFrames, m.slab, m.free = 0, nil, nil
}

// MemoryFootprintBytes estimates the monitor's buffer memory: the sum of
// all record payloads currently held.
func (m *Monitor) MemoryFootprintBytes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.MemoryFootprintBytes()
}
