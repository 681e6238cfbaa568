// Package mlexray is the public API of the ML-EXray reproduction: an edge-ML
// deployment validation framework (Qiu et al., MLSys 2022).
//
// The package exposes the two libraries the paper describes:
//
//   - The **instrumentation API** (§3.2): a Monitor that apps attach to
//     their inference pipelines to log model inputs/outputs, per-layer
//     details, performance metrics and peripheral sensors as key-value
//     telemetry records. Tensor payloads are captured lazily (raw bytes in
//     memory) and serialized by a pluggable codec: the human-readable JSONL
//     format or the length-prefixed binary format, streamed through the
//     Sink interface.
//
//   - The **deployment validation API** (§3.4): Validate compares an edge
//     log against a reference-pipeline log following the paper's Figure 2
//     flowchart — output/accuracy agreement first, per-layer normalized-rMSE
//     localisation when it drops, then built-in and user-defined assertion
//     functions for root-cause analysis (channel arrangement, normalization
//     range, resize filter, orientation, quantization drift, latency).
//
// A minimal instrumentation loop, spilling telemetry straight to a binary
// log so full-tensor capture never accumulates payloads in memory:
//
//	f, _ := os.Create("edge.mlxb")
//	sink := mlexray.NewBinarySink(f) // or NewJSONLSink / NewLogSink(f, format)
//	mon := mlexray.NewMonitor(mlexray.WithPerLayer(true), mlexray.WithSink(sink))
//	cl, err := pipeline.NewClassifier(model, pipeline.Options{Monitor: mon})
//	...
//	mon.OnInferenceStart()
//	// invoke ...
//	mon.OnInferenceStop(interp)
//	...
//	mon.Flush() // spill the last frame, flush the sink
//
// Reading accepts either encoding, auto-detected, and validation is
// identical whichever format carried the logs:
//
//	edgeLog, err := mlexray.ReadLog(edgeFile) // jsonl or binary
//	refLog, err := mlexray.ReadLog(refFile)
//	report, err := mlexray.Validate(edgeLog, refLog, mlexray.DefaultValidateOptions())
//	report.Render(os.Stdout)
//
// Replays scale past one simulated device with the fleet scheduler: a
// ShardPolicy splits the frame range across DeviceSpecs (profile + workers
// + batch + optional shard-log sink), each device replays its shard
// concurrently, and FleetValidate cross-validates the per-device shard logs
// — flagging the device a fault isolates to:
//
//	devs, _ := mlexray.ParseFleetSpec("Pixel4:2:8,Pixel3:1,Emulator-x86:1")
//	fleet := &mlexray.Fleet{Devices: devs, Policy: mlexray.Weighted{},
//		MonitorOptions: []mlexray.MonitorOption{mlexray.WithCaptureMode(mlexray.CaptureFull)}}
//	res, err := replay.FleetClassification(model, popts, images, fleet, nil)
//	shards := []mlexray.DeviceShardLog{{Device: "Pixel4", Log: res.DeviceLogs[0]}, ...}
//	fleetReport, err := mlexray.FleetValidate(shards, refLog, mlexray.DefaultValidateOptions())
//	fleetReport.Render(os.Stdout)
//
// The upload half of the paper's architecture is the ingestion service:
// devices stream telemetry to a collector (cmd/exrayd) through RemoteSinks,
// and the collector validates every stream incrementally as frames arrive —
// StreamValidator / FleetStreamValidator produce reports identical to the
// offline Validate / FleetValidate, without storing the logs:
//
//	srv, err := mlexray.NewIngestServer(mlexray.IngestServerOptions{Ref: refLog})
//	go http.ListenAndServe(":9090", srv)                       // or run cmd/exrayd
//	sink, err := mlexray.NewRemoteSink(mlexray.RemoteSinkOptions{
//		URL: "http://localhost:9090", Device: "Pixel4", Format: mlexray.FormatBinary, Gzip: true})
//	devs[0].Sink = sink                                        // fleet devices upload directly
//	...
//	report, err := srv.FleetReport()                           // or GET /fleet
//
// Past one collector's capacity the ingestion tier shards horizontally: an
// IngestGateway (cmd/exraygw) fronts a consistent-hash ring of collectors
// with the same HTTP surface, routing each device's uploads to its owning
// shard and merging per-shard accumulator snapshots into a /fleet report
// byte-identical to a single collector's:
//
//	gw, err := mlexray.NewIngestGateway(mlexray.IngestGatewayOptions{
//		Shards: []mlexray.IngestShard{{Name: "s0", URL: "http://host:9091"},
//			{Name: "s1", URL: "http://host:9092"}}})
//	go http.ListenAndServe(":9090", gw)                        // or run cmd/exraygw
//
// Everything underneath — the TFLite-like runtime with optimized/reference
// op resolvers, the converter and quantizer, the training substrate, the
// synthetic datasets and the device latency simulator — lives in internal/
// packages; see DESIGN.md for the system inventory.
package mlexray

import (
	"io"
	"net/http"

	"mlexray/internal/core"
	"mlexray/internal/device"
	"mlexray/internal/ingest"
	"mlexray/internal/obs"
	"mlexray/internal/ops"
	"mlexray/internal/runner"
	"mlexray/internal/shard"
)

// ---- kernel backend API ----

// KernelBackend selects the GEMM micro-kernel family the optimized op
// resolver's conv/dense/depthwise kernels lower through — the runtime's
// analogue of swapping TFLite's inner kernels while keeping the op graph
// fixed. The zero value is "tiled", the register-tiled fused kernels with
// the int8 fast path; "reference" is the naive GEMM they are diffed against.
// Tiled is contractually only validator-bounded on float against reference
// (quantized output is bit-exact on every backend), which is exactly the
// benign numerical-drift class the paper's validators are built to bound.
type KernelBackend = ops.Backend

// The selectable kernel backends.
const (
	KernelTiled     = ops.BackendTiled
	KernelReference = ops.BackendReference
)

// ParseKernelBackend parses a -kernel flag value ("tiled" or "reference";
// empty selects the tiled default).
func ParseKernelBackend(s string) (KernelBackend, error) { return ops.ParseBackend(s) }

// KernelBackends lists every selectable kernel backend.
func KernelBackends() []KernelBackend { return ops.Backends() }

// ---- telemetry data model ----

// Record is one key-value telemetry entry.
type Record = core.Record

// Log is a sequence of telemetry records.
type Log = core.Log

// RecordKind classifies telemetry records.
type RecordKind = core.RecordKind

// Record kinds.
const (
	KindTensor = core.KindTensor
	KindStats  = core.KindStats
	KindMetric = core.KindMetric
	KindSensor = core.KindSensor
)

// Well-known record keys.
const (
	KeyPreprocessOutput  = core.KeyPreprocessOutput
	KeyModelInput        = core.KeyModelInput
	KeyModelOutput       = core.KeyModelOutput
	KeyInferenceLatency  = core.KeyInferenceLatency
	KeySensorOrientation = core.KeySensorOrientation
)

// LogFormat selects a telemetry log encoding.
type LogFormat = core.LogFormat

// Log formats: human-readable JSONL and the length-prefixed binary format
// (raw little-endian tensor payloads, no base64).
const (
	FormatJSONL  = core.FormatJSONL
	FormatBinary = core.FormatBinary
)

// ParseLogFormat parses a -log-format style name ("jsonl" or "binary").
func ParseLogFormat(s string) (LogFormat, error) { return core.ParseLogFormat(s) }

// LogEncoder is the writer side of a log codec.
type LogEncoder = core.LogEncoder

// LogDecoder is the reader side of a log codec: Next returns records in
// stream order and io.EOF at the end.
type LogDecoder = core.LogDecoder

// NewLogEncoder returns the encoder for the given format.
func NewLogEncoder(w io.Writer, format LogFormat) (LogEncoder, error) {
	return core.NewLogEncoder(w, format)
}

// OpenLog wraps r in the decoder matching its format, auto-detected from
// the leading bytes.
func OpenLog(r io.Reader) (LogDecoder, LogFormat, error) { return core.OpenLog(r) }

// ReadLog parses a whole telemetry log in either format, auto-detected.
func ReadLog(r io.Reader) (*Log, error) { return core.ReadLog(r) }

// ReadLogWithFormat parses a whole telemetry log and also reports which
// format it detected.
func ReadLogWithFormat(r io.Reader) (*Log, LogFormat, error) { return core.ReadLogWithFormat(r) }

// ---- instrumentation API ----

// Monitor is the EdgeML Monitor: the object apps use to emit telemetry.
type Monitor = core.Monitor

// CaptureMode selects stats-only vs full-tensor logging.
type CaptureMode = core.CaptureMode

// Capture modes.
const (
	CaptureStats = core.CaptureStats
	CaptureFull  = core.CaptureFull
)

// MonitorOption configures a Monitor.
type MonitorOption = core.MonitorOption

// NewMonitor constructs a Monitor (stats-only, no per-layer capture by
// default — the lightweight always-on configuration).
func NewMonitor(opts ...MonitorOption) *Monitor { return core.NewMonitor(opts...) }

// WithCaptureMode selects the logging depth.
func WithCaptureMode(m CaptureMode) MonitorOption { return core.WithCaptureMode(m) }

// WithPerLayer enables per-layer output and latency records.
func WithPerLayer(enabled bool) MonitorOption { return core.WithPerLayer(enabled) }

// WithSink puts the monitor in direct-to-sink spill mode: each completed
// frame streams to the sink instead of accumulating in memory. Call
// Monitor.Flush after the last frame.
func WithSink(s Sink) MonitorOption { return core.WithSink(s) }

// ---- parallel replay API ----

// ProcessBatchFunc is the replay worker contract: it replays a contiguous
// [start,end) frame range on a worker-local pipeline replica, advancing its
// shard monitor's frame exactly once per frame, in order (every built-in
// pipeline does this on entry).
type ProcessBatchFunc = runner.ProcessBatchFunc

// BatchWorkerFactory builds one replay worker around its monitor shard.
type BatchWorkerFactory = runner.BatchWorkerFactory

// ReplayOptions configures a parallel replay (worker count, frames per
// batch, shard monitor options, streaming sink).
type ReplayOptions = runner.Options

// Sink consumes telemetry frames in order: replays stream through it
// (ReplayOptions.Sink) and spill-mode monitors write to it directly.
type Sink = core.Sink

// LogSink is the interface of the built-in streaming sinks: a Sink that
// writes one of the log formats and reports records/bytes written.
type LogSink = core.LogSink

// NewLogSink wraps w in a streaming sink for the given format.
func NewLogSink(w io.Writer, format LogFormat) (LogSink, error) { return core.NewLogSink(w, format) }

// JSONLSink streams telemetry to a writer in the JSONL log format without
// retaining records in memory.
type JSONLSink = core.JSONLSink

// NewJSONLSink wraps w in a streaming JSONL log writer.
func NewJSONLSink(w io.Writer) *JSONLSink { return core.NewJSONLSink(w) }

// BinarySink streams telemetry in the length-prefixed binary log format —
// the low-overhead choice for full-tensor capture.
type BinarySink = core.BinarySink

// NewBinarySink wraps w in a streaming binary log writer.
func NewBinarySink(w io.Writer) *BinarySink { return core.NewBinarySink(w) }

// ReplayBatched shards a dataset replay across a worker pool, each worker
// owning a pipeline replica and a monitor shard and taking contiguous
// [start,end) ranges of opts.BatchFrames frames (one frame by default), and
// returns the shard logs merged by frame index — record-for-record identical
// to a sequential replay (modulo wall-clock latency values), at roughly
// core-count throughput.
func ReplayBatched(frames int, factory BatchWorkerFactory, opts ReplayOptions) (*Log, error) {
	return runner.ReplayBatched(frames, factory, opts)
}

// MergeByFrame merges shard logs by frame index, renumbering sequence
// numbers globally (the merge ReplayBatched applies internally).
func MergeByFrame(shards ...*Log) *Log { return core.MergeByFrame(shards...) }

// ---- fleet replay API ----

// Fleet is the two-tier replay scheduler: a shard policy splits one dataset
// replay across a set of simulated devices, and every device runs its shard
// concurrently through the per-device replay engine with its own worker
// pool, batch size and optional shard-log sink. The merge of the per-device
// logs is byte-identical (modulo wall-clock values) to a sequential replay
// of the same shard assignment.
type Fleet = runner.Fleet

// DeviceSpec describes one device slot of a fleet: its simulated profile,
// worker count, batch size and optional per-device log sink.
type DeviceSpec = runner.DeviceSpec

// ShardPolicy distributes a fleet replay's frame range across devices.
type ShardPolicy = runner.ShardPolicy

// The built-in shard policies: cyclic chunk dealing, throughput-
// proportional dealing, and equal contiguous spans.
type (
	RoundRobin = runner.RoundRobin
	Weighted   = runner.Weighted
	Contiguous = runner.Contiguous
)

// FrameRange is a half-open [Start, End) interval of dataset frames — the
// unit of shard assignments.
type FrameRange = runner.Range

// FleetResult is a fleet replay's output: the merged log, the per-device
// shard logs and the shard assignment.
type FleetResult = runner.FleetResult

// FleetBatchWorkerFactory builds one replay worker for a fleet device.
type FleetBatchWorkerFactory = runner.FleetBatchWorkerFactory

// DeviceProfile is a simulated device (latency model, logging overheads) —
// what DeviceSpec.Profile carries.
type DeviceProfile = device.Profile

// DeviceByName looks up a built-in device profile ("Pixel4", "Pixel4-GPU",
// "Pixel3", "Pixel3-GPU", "Emulator-x86").
func DeviceByName(name string) (*DeviceProfile, error) { return device.ByName(name) }

// DeviceProfiles returns all built-in device profiles.
func DeviceProfiles() []*DeviceProfile { return device.Profiles() }

// ParseFleetSpec parses the CLI fleet syntax "profile:workers[:batch],...".
func ParseFleetSpec(spec string) ([]DeviceSpec, error) { return runner.ParseFleetSpec(spec) }

// ParseShardPolicy resolves a policy name ("contiguous", "round-robin",
// "weighted") to its ShardPolicy.
func ParseShardPolicy(name string) (ShardPolicy, error) { return runner.ParseShardPolicy(name) }

// DeviceShardLog pairs a device name with its fleet-replay shard log, the
// input to FleetValidate.
type DeviceShardLog = core.DeviceShardLog

// FleetReport is the fleet-level cross-validation result: per-device
// accuracy/drift/latency rollups plus cross-device divergence (frames where
// one device disagrees with the reference while the rest of the fleet
// agrees — evidence of a device-local fault).
type FleetReport = core.FleetReport

// FleetDeviceReport is one device's rollup within a FleetReport.
type FleetDeviceReport = core.FleetDeviceReport

// FleetValidate cross-validates per-device shard logs against a reference
// log, flagging devices whose divergence isolates to them.
func FleetValidate(shards []DeviceShardLog, ref *Log, opts ValidateOptions) (*FleetReport, error) {
	return core.FleetValidate(shards, ref, opts)
}

// ---- telemetry ingestion API ----

// StreamValidator is the incremental deployment validator: it consumes one
// device's telemetry stream record by record (or frame by frame — it is also
// a Sink) and computes the validation Report in bounded memory, per-layer
// tensors folding into rollups as they arrive. The final report is identical
// to Validate over the same records; Validate itself delegates here.
type StreamValidator = core.StreamValidator

// NewStreamValidator builds an incremental validator checking a stream
// against the reference log.
func NewStreamValidator(ref *Log, opts ValidateOptions) *StreamValidator {
	return core.NewStreamValidator(ref, opts)
}

// FleetStreamValidator validates many concurrent device streams against one
// shared reference — the state behind the ingestion collector's /fleet
// report. Its Report equals FleetValidate over the same records.
type FleetStreamValidator = core.FleetStreamValidator

// NewFleetStreamValidator indexes the reference log for fleet-wide streaming
// validation.
func NewFleetStreamValidator(ref *Log, opts ValidateOptions) (*FleetStreamValidator, error) {
	return core.NewFleetStreamValidator(ref, opts)
}

// IngestServer is the telemetry ingestion collector: an http.Handler that
// accepts concurrent device log uploads (POST /ingest, chunked, either
// encoding, plain or gzip), validates each session incrementally, and serves
// per-device and fleet-wide reports (GET /devices/{id}, GET /fleet).
// cmd/exrayd wraps it as a daemon.
//
// With IngestServerOptions.DataDir set the collector is durable: accepted
// chunks are fsynced to per-session write-ahead segments before the ack,
// and a restarted collector replays them so the recovered reports are
// byte-identical to an uninterrupted run (Recovery reports what was
// restored). MaxSessions and MaxChunksPerSec add admission control — 503
// and 429 with Retry-After, which RemoteSink retries as transient.
// IdleTimeout (durable only) evicts idle sessions to free slots while
// their segments stay resurrectable; ReadTimeout/WriteTimeout arm
// per-request deadlines that shed slow-loris uploads. These hardening
// knobs are storm-tested by cmd/exraystorm, a fault-injecting
// device-swarm harness that pins the collector's graceful degradation.
type IngestServer = ingest.Server

// IngestServerOptions configures an IngestServer.
type IngestServerOptions = ingest.ServerOptions

// IngestRecoveryStats reports what an IngestServer's startup replay of its
// write-ahead log restored (IngestServer.Recovery).
type IngestRecoveryStats = ingest.RecoveryStats

// NewIngestServer builds a collector validating uploads against
// opts.Ref.
func NewIngestServer(opts IngestServerOptions) (*IngestServer, error) {
	return ingest.NewServer(opts)
}

// RemoteSink is the device side of the ingestion service: a Sink that
// streams a replay's telemetry to a collector in chunked, optionally
// gzip-compressed uploads with retry/backoff. Attach it as a replay's Sink
// (or a fleet DeviceSpec's) to upload instead of writing a local file.
type RemoteSink = ingest.RemoteSink

// RemoteSinkOptions configures a RemoteSink (collector URL, device ID,
// encoding, gzip, chunk size, retries). Failed uploads retry with
// jittered exponential backoff under two budgets — MaxRetries attempts
// and MaxElapsed total time — honoring the collector's Retry-After on
// 429/503.
type RemoteSinkOptions = ingest.SinkOptions

// NewRemoteSink builds a sink streaming to the collector at opts.URL.
func NewRemoteSink(opts RemoteSinkOptions) (*RemoteSink, error) {
	return ingest.NewRemoteSink(opts)
}

// ---- sharded ingestion API ----

// HashRing is the consistent-hash placement ring behind sharded ingest:
// a deterministic device→shard mapping (virtual nodes smooth the spread)
// that moves only ~K/N of K devices when a shard joins or leaves.
type HashRing = shard.Ring

// NewHashRing builds a ring over the named shards with the given per-shard
// virtual-node count (<= 0 means the default).
func NewHashRing(shards []string, vnodes int) (*HashRing, error) {
	return shard.NewRing(shards, vnodes)
}

// IngestShard names one collector shard of a gateway's ring and where it
// listens. Placement hashes the name, not the URL, so a shard can move
// hosts without relocating its devices.
type IngestShard = shard.ShardAddr

// IngestGateway fronts a consistent-hash ring of IngestServers with a
// single collector's HTTP surface: uploads route to the owning shard,
// /devices/{id} proxies, and /fleet merges per-shard accumulator snapshots
// through the same finalizer a lone collector runs — so the merged report
// is byte-identical to an unsharded deployment's. cmd/exraygw wraps it as
// a daemon.
type IngestGateway = shard.Gateway

// IngestGatewayOptions configures an IngestGateway (ring membership,
// virtual-node count, validation thresholds, proxy vs 307-redirect upload
// routing).
type IngestGatewayOptions = shard.GatewayOptions

// NewIngestGateway builds a gateway over the given shard set.
func NewIngestGateway(opts IngestGatewayOptions) (*IngestGateway, error) {
	return shard.NewGateway(opts)
}

// FleetSessionSnapshot is one device session's accumulator state, exported
// by a shard's /fleet/export endpoint (FleetStreamValidator.Snapshots) —
// the unit the gateway merges.
type FleetSessionSnapshot = core.FleetSessionSnapshot

// MergeFleetSnapshots folds per-shard session snapshots into the fleet
// report a single collector holding every session would produce.
func MergeFleetSnapshots(snaps []FleetSessionSnapshot, opts ValidateOptions) (*FleetReport, error) {
	return core.MergeFleetSnapshots(snaps, opts)
}

// ---- observability API ----

// MetricsRegistry holds the collector tier's self-telemetry: zero-alloc
// atomic counters, gauges and log-bucketed histograms, rendered in
// Prometheus text exposition format (GET /metrics on every collector and
// gateway). Pass one as IngestServerOptions.Metrics /
// IngestGatewayOptions.Metrics / RemoteSinkOptions.Metrics to share a
// registry across components, or leave nil for a private per-component
// registry. IngestServerOptions.DisableMetrics turns the layer off
// entirely — the benchmarked instrumentation overhead on the ingest hot
// path is under 3%.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RegisterRuntimeMetrics adds process-level gauges (goroutines, heap,
// GC pauses and cycles) to a registry, as cmd/exrayd and cmd/exraygw do.
func RegisterRuntimeMetrics(reg *MetricsRegistry) { obs.RegisterRuntimeMetrics(reg) }

// TraceRing is the bounded in-memory span store behind GET /debug/trace:
// RemoteSink mints an X-MLEXray-Trace ID per chunk
// (<stream-token>-<chunk-index>) and the gateway, the owning shard's
// ingest handler and the WAL append each record a hop against it, so one
// chunk's path through a sharded deployment is reconstructable from the
// rings alone (IngestServer.Traces, IngestGateway.Traces).
type TraceRing = obs.TraceRing

// TraceSpan is one recorded hop in a TraceRing.
type TraceSpan = obs.Span

// NewTraceRing builds a ring holding the last capacity spans
// (<= 0 means the default).
func NewTraceRing(capacity int) *TraceRing { return obs.NewTraceRing(capacity) }

// DebugMux mounts the observability surface — GET /metrics, GET
// /debug/trace and net/http/pprof — on one mux, for an opt-in debug
// listener (the daemons' -debug-addr). pprof lives only here, never on
// an ingest or routing address.
func DebugMux(reg *MetricsRegistry, ring *TraceRing) *http.ServeMux {
	return obs.DebugMux(reg, ring)
}

// SinkStats is a RemoteSink's client-side view of its upload session
// (RemoteSink.Stats): chunks, frames, records and wire bytes sent,
// retries, redirects followed, chunks given up and time spent backing
// off — what edgerun prints after each upload.
type SinkStats = ingest.SinkStats

// ---- validation API ----

// Report is the validator's output.
type Report = core.Report

// ValidateOptions tunes the validator.
type ValidateOptions = core.ValidateOptions

// LayerDiff is per-layer drift between edge and reference logs.
type LayerDiff = core.LayerDiff

// Finding is one triggered root-cause assertion.
type Finding = core.Finding

// Assertion is a root-cause check; implement it (or use AssertionFunc) to
// add domain knowledge to the validation flow.
type Assertion = core.Assertion

// AssertionFunc adapts a function to the Assertion interface.
type AssertionFunc = core.AssertionFunc

// AssertCtx is the evidence handed to assertions.
type AssertCtx = core.AssertCtx

// DefaultValidateOptions returns the standard thresholds and built-in
// assertions.
func DefaultValidateOptions() ValidateOptions { return core.DefaultValidateOptions() }

// Validate runs the deployment-validation flowchart on two logs.
func Validate(edge, ref *Log, opts ValidateOptions) (*Report, error) {
	return core.Validate(edge, ref, opts)
}

// CompareLayers computes per-layer drift between two per-layer logs.
func CompareLayers(edge, ref *Log) ([]LayerDiff, error) { return core.CompareLayers(edge, ref) }

// OutputAgreement computes the fraction of frames with matching model-output
// argmax.
func OutputAgreement(edge, ref *Log) (float64, error) { return core.OutputAgreement(edge, ref) }

// FirstSpike localises the earliest drift spike in a layer-diff series.
func FirstSpike(diffs []LayerDiff, threshold, jumpFactor float64) (LayerDiff, bool) {
	return core.FirstSpike(diffs, threshold, jumpFactor)
}

// BuiltinAssertions returns the standard root-cause assertion set.
func BuiltinAssertions() []Assertion { return core.BuiltinAssertions() }
