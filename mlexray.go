// Package mlexray is the public API of the ML-EXray reproduction: an edge-ML
// deployment validation framework (Qiu et al., MLSys 2022).
//
// The package re-exports exactly what the programs under examples/ import —
// a test (TestFacadeExportsHaveUsers) fails when a name here has no user —
// and that set is the two libraries the paper describes:
//
//   - The **instrumentation API** (§3.2): a Monitor that apps attach to
//     their inference pipelines to log model inputs/outputs, per-layer
//     details, performance metrics and peripheral sensors as key-value
//     telemetry records. Tensor payloads are captured lazily (raw bytes in
//     memory) and serialized in one of two LogFormats: the human-readable
//     JSONL format or the length-prefixed binary format, streamed through a
//     LogSink.
//
//   - The **deployment validation API** (§3.4): Validate compares an edge
//     log against a reference-pipeline log following the paper's Figure 2
//     flowchart — output/accuracy agreement first, per-layer normalized-rMSE
//     localisation when it drops, then built-in and user-defined assertion
//     functions for root-cause analysis (channel arrangement, normalization
//     range, resize filter, orientation, quantization drift, latency).
//
// A minimal instrumentation loop — the pipeline logs preprocess output,
// model input/output, per-layer tensors and latency into the monitor:
//
//	mon := mlexray.NewMonitor(mlexray.WithCaptureMode(mlexray.CaptureFull), mlexray.WithPerLayer(true))
//	cl, err := pipeline.NewClassifier(model, pipeline.Options{Monitor: mon})
//	for _, img := range images {
//		_, _, err = cl.Classify(img)
//	}
//	edgeLog := mon.Log()
//
// A parallel replay streams its telemetry straight to a log file instead, so
// full-tensor capture never accumulates payloads in memory:
//
//	sink, err := mlexray.NewLogSink(f, mlexray.FormatBinary) // or FormatJSONL
//	_, err = replay.Classification(model, popts, images, mlexray.ReplayOptions{
//		MonitorOptions: []mlexray.MonitorOption{mlexray.WithCaptureMode(mlexray.CaptureFull)},
//		Sink:           sink, DiscardLog: true}, nil)
//	err = sink.Flush()
//
// Reading accepts either encoding, auto-detected, and validation is
// identical whichever format carried the logs:
//
//	edgeLog, err := mlexray.ReadLog(edgeFile) // jsonl or binary
//	refLog, err := mlexray.ReadLog(refFile)
//	report, err := mlexray.Validate(edgeLog, refLog, mlexray.DefaultValidateOptions())
//	report.Render(os.Stdout)
//
// Replays scale past one simulated device with the fleet scheduler: a shard
// policy (RoundRobin, Weighted) splits the frame range across DeviceSpecs
// (profile + workers + batch + optional shard-log sink), each device replays
// its shard concurrently, and FleetValidate cross-validates the per-device
// shard logs — flagging the device a fault isolates to:
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
// and the collector validates every stream incrementally as frames arrive,
// producing reports identical to the offline Validate / FleetValidate
// without storing the logs:
//
//	srv, err := mlexray.NewIngestServer(mlexray.IngestServerOptions{Ref: refLog})
//	go http.ListenAndServe(":9090", srv)                       // or run cmd/exrayd
//	sink, err := mlexray.NewRemoteSink(mlexray.RemoteSinkOptions{
//		URL: "http://localhost:9090", Device: "Pixel4", Format: mlexray.FormatBinary})
//	devs[0].Sink = sink                                        // fleet devices upload directly
//	...
//	report, err := srv.FleetReport()                           // or GET /fleet
//
// Everything underneath — the TFLite-like runtime with its kernel backends,
// the converter and quantizer, the training substrate, the synthetic
// datasets, the device latency simulator, the replay engine, and the
// sharded, self-instrumented collector tier behind cmd/exraygw — lives in
// internal/ packages and is reached through the cmd/ binaries; see
// DESIGN.md for the system inventory.
package mlexray

import (
	"io"

	"mlexray/internal/core"
	"mlexray/internal/ingest"
	"mlexray/internal/runner"
)

// ---- telemetry data model ----

// Log is a sequence of telemetry records.
type Log = core.Log

// LogFormat selects a telemetry log encoding.
type LogFormat = core.LogFormat

// Log formats: human-readable JSONL and the length-prefixed binary format
// (raw little-endian tensor payloads, no base64).
const (
	FormatJSONL  = core.FormatJSONL
	FormatBinary = core.FormatBinary
)

// ReadLog parses a whole telemetry log in either format, auto-detected.
func ReadLog(r io.Reader) (*Log, error) { return core.ReadLog(r) }

// ---- instrumentation API ----

// Monitor is the EdgeML Monitor: the object apps use to emit telemetry.
type Monitor = core.Monitor

// CaptureMode selects stats-only (the zero value) vs full-tensor logging.
type CaptureMode = core.CaptureMode

// CaptureFull logs every tensor's payload, not only its statistics.
const CaptureFull = core.CaptureFull

// MonitorOption configures a Monitor.
type MonitorOption = core.MonitorOption

// NewMonitor constructs a Monitor (stats-only, no per-layer capture by
// default — the lightweight always-on configuration).
func NewMonitor(opts ...MonitorOption) *Monitor { return core.NewMonitor(opts...) }

// WithCaptureMode selects the logging depth.
func WithCaptureMode(m CaptureMode) MonitorOption { return core.WithCaptureMode(m) }

// WithPerLayer enables per-layer output and latency records.
func WithPerLayer(enabled bool) MonitorOption { return core.WithPerLayer(enabled) }

// ---- parallel replay API ----

// ReplayOptions configures a parallel replay (worker count, frames per
// batch, shard monitor options, streaming sink).
type ReplayOptions = runner.Options

// LogSink is the interface of the built-in streaming sinks: it consumes
// telemetry frames in order (ReplayOptions.Sink, DeviceSpec.Sink), writes
// one of the log formats and reports records/bytes written.
type LogSink = core.LogSink

// NewLogSink wraps w in a streaming sink for the given format.
func NewLogSink(w io.Writer, format LogFormat) (LogSink, error) { return core.NewLogSink(w, format) }

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

// The shard policies a Fleet distributes frames with: cyclic chunk dealing
// and throughput-proportional dealing.
type (
	RoundRobin = runner.RoundRobin
	Weighted   = runner.Weighted
)

// ParseFleetSpec parses the CLI fleet syntax "profile:workers[:batch],...".
func ParseFleetSpec(spec string) ([]DeviceSpec, error) { return runner.ParseFleetSpec(spec) }

// DeviceShardLog pairs a device name with its fleet-replay shard log, the
// input to FleetValidate.
type DeviceShardLog = core.DeviceShardLog

// FleetReport is the fleet-level cross-validation result: per-device
// accuracy/drift/latency rollups plus cross-device divergence (frames where
// one device disagrees with the reference while the rest of the fleet
// agrees — evidence of a device-local fault).
type FleetReport = core.FleetReport

// FleetValidate cross-validates per-device shard logs against a reference
// log, flagging devices whose divergence isolates to them.
func FleetValidate(shards []DeviceShardLog, ref *Log, opts ValidateOptions) (*FleetReport, error) {
	return core.FleetValidate(shards, ref, opts)
}

// ---- telemetry ingestion API ----

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

// NewIngestServer builds a collector validating uploads against
// opts.Ref.
func NewIngestServer(opts IngestServerOptions) (*IngestServer, error) {
	return ingest.NewServer(opts)
}

// RemoteSink is the device side of the ingestion service: a sink that
// streams a replay's telemetry to a collector in chunked, optionally
// gzip-compressed uploads with retry/backoff. Attach it as a replay's Sink
// (or a fleet DeviceSpec's) to upload instead of writing a local file;
// Stats reports what the session sent.
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

// ---- validation API ----

// Report is the validator's output.
type Report = core.Report

// ValidateOptions tunes the validator.
type ValidateOptions = core.ValidateOptions

// LayerDiff is per-layer drift between edge and reference logs.
type LayerDiff = core.LayerDiff

// Finding is one triggered root-cause assertion.
type Finding = core.Finding

// AssertionFunc adapts a function to the validator's assertion interface:
// append one to ValidateOptions.Assertions to add domain knowledge to the
// validation flow.
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
