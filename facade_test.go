package mlexray_test

// End-to-end exercise of the public API: instrument an edge app with a bug,
// replay the reference pipeline, persist both logs as JSONL files (the
// cross-process workflow of cmd/edgerun + cmd/refrun), read them back and
// validate.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlexray"
	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/imaging"
	"mlexray/internal/ingest"
	"mlexray/internal/obs"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/shard"
	"mlexray/internal/zoo"
)

func captureLog(t *testing.T, bug pipeline.Bug, resolver *ops.Resolver, quantized bool) *mlexray.Log {
	t.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	m := entry.Mobile
	if quantized {
		m = entry.Quant
	}
	mon := mlexray.NewMonitor(mlexray.WithCaptureMode(mlexray.CaptureFull), mlexray.WithPerLayer(true))
	cl, err := pipeline.NewClassifier(m, pipeline.Options{Resolver: resolver, Monitor: mon, Bug: bug})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range datasets.SynthImageNet(5555, 5) {
		if _, _, err := cl.Classify(s.Image); err != nil {
			t.Fatal(err)
		}
	}
	return mon.Log()
}

// roundTripThroughDisk serializes a log to a JSONL file and reads it back —
// the cross-process path.
func roundTripThroughDisk(t *testing.T, l *mlexray.Log, path string) *mlexray.Log {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	back, err := mlexray.ReadLog(rf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestFacadeEndToEndChannelBug(t *testing.T) {
	dir := t.TempDir()
	edge := roundTripThroughDisk(t,
		captureLog(t, pipeline.BugChannel, ops.NewOptimized(ops.Fixed()), false),
		filepath.Join(dir, "edge.jsonl"))
	ref := roundTripThroughDisk(t,
		captureLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), false),
		filepath.Join(dir, "ref.jsonl"))

	report, err := mlexray.Validate(edge, ref, mlexray.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.OutputAgreement >= 0.99 {
		t.Errorf("channel bug should reduce agreement, got %.2f", report.OutputAgreement)
	}
	found := false
	for _, f := range report.Findings {
		if f.Assertion == "channel-arrangement" {
			found = true
		}
	}
	if !found {
		t.Errorf("channel-arrangement finding missing after disk round trip: %+v", report.Findings)
	}
}

// TestFacadeKernelBackend drives the kernel-backend seam end to end through
// the public API: a tiled-backend edge log must validate cleanly (benign
// float drift, bounded by the validators) against a reference-backend
// log, and the flag-name round trip must cover every backend — and nothing
// else: a deleted backend name must fail, not alias.
func TestFacadeKernelBackend(t *testing.T) {
	for _, b := range ops.Backends() {
		got, err := ops.ParseBackend(b.String())
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", b.String(), err)
		}
		if got != b {
			t.Errorf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
	for _, name := range []string{"simd512", "blocked"} {
		if _, err := ops.ParseBackend(name); err == nil || !strings.Contains(err.Error(), "tiled or reference") {
			t.Errorf("ParseBackend(%q) error = %v, want one naming the valid backends", name, err)
		}
	}

	capture := func(backend ops.Backend) *mlexray.Log {
		entry, err := zoo.Get("mobilenetv2-mini")
		if err != nil {
			t.Fatal(err)
		}
		mon := mlexray.NewMonitor(mlexray.WithCaptureMode(mlexray.CaptureFull), mlexray.WithPerLayer(true))
		cl, err := pipeline.NewClassifier(entry.Mobile, pipeline.Options{Monitor: mon, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range datasets.SynthImageNet(7777, 5) {
			if _, _, err := cl.Classify(s.Image); err != nil {
				t.Fatal(err)
			}
		}
		return mon.Log()
	}
	edge := capture(ops.BackendTiled)
	ref := capture(ops.BackendReference)
	report, err := mlexray.Validate(edge, ref, mlexray.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.OutputAgreement < 0.99 {
		t.Errorf("tiled vs reference agreement = %.2f, want >= 0.99 (benign drift only)", report.OutputAgreement)
	}
}

func TestFacadeQuantKernelDiagnosis(t *testing.T) {
	edge := captureLog(t, pipeline.BugNone, ops.NewOptimized(ops.Historical()), true)
	ref := captureLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), false)
	diffs, err := mlexray.CompareLayers(edge, ref)
	if err != nil {
		t.Fatal(err)
	}
	spike, ok := mlexray.FirstSpike(diffs, 0.1, 3)
	if !ok || spike.OpType != "DepthwiseConv2D" {
		t.Errorf("spike = %+v, ok=%v; want DepthwiseConv2D", spike, ok)
	}
}

func TestFacadeCustomAssertion(t *testing.T) {
	edge := captureLog(t, pipeline.BugNone, ops.NewOptimized(ops.Fixed()), false)
	ref := captureLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), false)
	called := false
	opts := mlexray.DefaultValidateOptions()
	opts.Assertions = append(opts.Assertions, mlexray.AssertionFunc{
		AssertionName: "user-check",
		Fn: func(ctx *mlexray.AssertCtx) *mlexray.Finding {
			called = true
			if len(ctx.Edge.MetricValues(core.KeyInferenceLatency)) == 0 {
				return &mlexray.Finding{Assertion: "user-check", Detail: "no latency telemetry"}
			}
			return nil
		},
	})
	report, err := mlexray.Validate(edge, ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("custom assertion never ran")
	}
	// A clean deployment: high agreement, no findings.
	if report.OutputAgreement < 0.99 {
		t.Errorf("clean run agreement = %.2f", report.OutputAgreement)
	}
	for _, f := range report.Findings {
		t.Errorf("unexpected finding on clean run: %+v", f)
	}
}

// Combined bugs: with two preprocessing bugs at once the per-assertion
// hypotheses don't hold individually, but validation must still flag the
// deployment (the paper: "multiple issues can exist together").
func TestFacadeCombinedBugsStillCaught(t *testing.T) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	mon := mlexray.NewMonitor(mlexray.WithCaptureMode(mlexray.CaptureFull))
	cl, err := pipeline.NewClassifier(entry.Mobile, pipeline.Options{
		Resolver: ops.NewOptimized(ops.Fixed()), Monitor: mon, Bug: pipeline.BugChannel,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Manually stack a second bug by feeding rotated captures.
	for _, s := range datasets.SynthImageNet(5555, 5) {
		rotated := imaging.Rotate(s.Image, imaging.Rotate90)
		if _, _, err := cl.Classify(rotated); err != nil {
			t.Fatal(err)
		}
	}
	ref := captureLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), false)
	report, err := mlexray.Validate(mon.Log(), ref, mlexray.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.OutputAgreement > 0.9 {
		t.Errorf("stacked bugs should tank agreement, got %.2f", report.OutputAgreement)
	}
	// No single-hypothesis assertion should *mis*attribute: the channel
	// assertion requires an exact match after swapping, which rotation
	// breaks; accuracy validation still catches the problem.
	for _, f := range report.Findings {
		if f.Assertion == "channel-arrangement" || f.Assertion == "normalization-range" {
			t.Errorf("single-bug assertion misfired on stacked bugs: %+v", f)
		}
	}
}

// TestFacadeParallelReplay exercises the public parallel replay API: a
// worker-pool replay streamed through a JSONL sink, whose validator output
// matches a sequential capture of the same pipeline.
func TestFacadeParallelReplay(t *testing.T) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	samples := datasets.SynthImageNet(5555, 5)
	base, err := pipeline.NewClassifier(entry.Mobile, pipeline.Options{Resolver: ops.NewReference(ops.Fixed())})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "par.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := core.NewJSONLSink(f)
	par, err := runner.ReplayBatched(len(samples), func(mon *mlexray.Monitor) (runner.ProcessBatchFunc, error) {
		cl, err := base.Clone(mon)
		if err != nil {
			return nil, err
		}
		return func(start, end int) error {
			for i := start; i < end; i++ {
				if _, _, err := cl.Classify(samples[i].Image); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}, mlexray.ReplayOptions{
		Workers:        4,
		MonitorOptions: []mlexray.MonitorOption{mlexray.WithCaptureMode(mlexray.CaptureFull), mlexray.WithPerLayer(true)},
		Sink:           sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Records() != len(par.Records) {
		t.Errorf("sink wrote %d records, merged log has %d", sink.Records(), len(par.Records))
	}

	// The parallel log must validate cleanly against a sequential capture
	// of the same pipeline, and the streamed file must read back whole.
	seq := captureLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), false)
	report, err := mlexray.Validate(par, seq, mlexray.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.OutputAgreement != 1 {
		t.Errorf("parallel vs sequential agreement = %.2f, want 1", report.OutputAgreement)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	back, err := mlexray.ReadLog(rf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(par.Records) {
		t.Errorf("streamed file has %d records, merged log %d", len(back.Records), len(par.Records))
	}
}

// TestFacadeBinarySpillWorkflow drives the codec/sink surface of the facade
// end to end: an edge capture spills frame by frame through a binary LogSink
// to disk, a parallel reference replay streams through a binary sink, both read
// back via the auto-detecting ReadLog, and Validate reports exactly what the
// JSONL path reports for the same telemetry.
func TestFacadeBinarySpillWorkflow(t *testing.T) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Edge capture in spill mode: full tensors stream to the binary log as
	// each frame completes instead of accumulating in the monitor.
	edgePath := filepath.Join(dir, "edge.mlxb")
	ef, err := os.Create(edgePath)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := mlexray.NewLogSink(ef, mlexray.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	mon := mlexray.NewMonitor(mlexray.WithCaptureMode(mlexray.CaptureFull),
		mlexray.WithPerLayer(true), core.WithSink(sink))
	cl, err := pipeline.NewClassifier(entry.Mobile, pipeline.Options{
		Resolver: ops.NewOptimized(ops.Fixed()), Monitor: mon, Bug: pipeline.BugNormalization,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range datasets.SynthImageNet(5555, 4) {
		if _, _, err := cl.Classify(s.Image); err != nil {
			t.Fatal(err)
		}
	}
	if err := mon.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	if mon.MemoryFootprintBytes() != 0 {
		t.Errorf("spill-mode monitor retains %d bytes after Flush", mon.MemoryFootprintBytes())
	}

	// Reference capture: a parallel replay streamed through a binary sink.
	refPath := filepath.Join(dir, "ref.mlxb")
	rfOut, err := os.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	refSink, err := mlexray.NewLogSink(rfOut, mlexray.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	base, err := pipeline.NewClassifier(entry.Mobile, pipeline.Options{Resolver: ops.NewReference(ops.Fixed())})
	if err != nil {
		t.Fatal(err)
	}
	samples := datasets.SynthImageNet(5555, 4)
	if _, err := runner.ReplayBatched(len(samples), func(m *mlexray.Monitor) (runner.ProcessBatchFunc, error) {
		w, err := base.Clone(m)
		if err != nil {
			return nil, err
		}
		return func(start, end int) error {
			for i := start; i < end; i++ {
				if _, _, err := w.Classify(samples[i].Image); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}, mlexray.ReplayOptions{
		Workers:        2,
		MonitorOptions: []mlexray.MonitorOption{mlexray.WithCaptureMode(mlexray.CaptureFull), mlexray.WithPerLayer(true)},
		Sink:           refSink,
		DiscardLog:     true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := refSink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rfOut.Close(); err != nil {
		t.Fatal(err)
	}

	readBack := func(path string, wantFormat mlexray.LogFormat) *mlexray.Log {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		l, format, err := core.ReadLogWithFormat(f)
		if err != nil {
			t.Fatal(err)
		}
		if format != wantFormat {
			t.Fatalf("%s detected as %v, want %v", path, format, wantFormat)
		}
		return l
	}
	edge := readBack(edgePath, mlexray.FormatBinary)
	ref := readBack(refPath, mlexray.FormatBinary)

	report, err := mlexray.Validate(edge, ref, mlexray.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range report.Findings {
		if f.Assertion == "normalization-range" {
			found = true
		}
	}
	if !found {
		t.Errorf("normalization finding missing from binary-log validation: %+v", report.Findings)
	}

	// The same telemetry re-encoded as JSONL must validate identically.
	jsonlEdge := roundTripThroughDisk(t, edge, filepath.Join(dir, "edge.jsonl"))
	jsonlRef := roundTripThroughDisk(t, ref, filepath.Join(dir, "ref.jsonl"))
	jreport, err := mlexray.Validate(jsonlEdge, jsonlRef, mlexray.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	report.Render(&want)
	jreport.Render(&got)
	if want.String() != got.String() {
		t.Errorf("binary-log report differs from JSONL report:\n%s\nvs\n%s", want.String(), got.String())
	}
}

// TestFacadeFleetWorkflow drives the fleet surface of the facade end to
// end: parse a fleet spec, shard a replay across two simulated devices with
// a bug injected into one of them, and cross-validate the per-device shard
// logs — the flagged device must be exactly the bugged one, and the merge
// of the shard logs must validate like a whole-log replay.
func TestFacadeFleetWorkflow(t *testing.T) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	devs, err := mlexray.ParseFleetSpec("Pixel4:2:4,Pixel3:1")
	if err != nil {
		t.Fatal(err)
	}
	policy, err := runner.ParseShardPolicy("round-robin")
	if err != nil {
		t.Fatal(err)
	}
	samples := datasets.SynthImageNet(5555, 16)
	images := make([]*imaging.Image, len(samples))
	for i := range samples {
		images[i] = samples[i].Image
	}
	const bugged = 0
	fleet := &mlexray.Fleet{
		Devices: devs,
		Policy:  policy,
		MonitorOptions: []mlexray.MonitorOption{
			mlexray.WithCaptureMode(mlexray.CaptureFull), mlexray.WithPerLayer(true),
		},
	}
	res, err := replay.FleetClassification(entry.Mobile,
		pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, images, fleet,
		func(dev int, spec mlexray.DeviceSpec, o *pipeline.Options) {
			if dev == bugged {
				o.Bug = pipeline.BugNormalization
			}
		})
	if err != nil {
		t.Fatal(err)
	}

	ref := captureLogN(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), len(images))
	shards := make([]mlexray.DeviceShardLog, len(devs))
	for d, spec := range devs {
		shards[d] = mlexray.DeviceShardLog{Device: spec.Name(), Log: res.DeviceLogs[d]}
	}
	fleetReport, err := mlexray.FleetValidate(shards, ref, mlexray.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fleetReport.Flagged) != 1 || fleetReport.Flagged[0] != devs[bugged].Name() {
		t.Fatalf("flagged = %v, want exactly [%s]", fleetReport.Flagged, devs[bugged].Name())
	}

	// The merged shard logs behave as one log under the standard validator.
	merged := core.MergeByFrame(res.DeviceLogs...)
	report, err := mlexray.Validate(merged, ref, mlexray.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.OutputAgreement >= 1 {
		t.Errorf("merged agreement %.2f should reflect the bugged shard", report.OutputAgreement)
	}
	if report.OutputAgreement != fleetReport.FleetAgreement {
		t.Errorf("merged agreement %.3f != fleet agreement %.3f", report.OutputAgreement, fleetReport.FleetAgreement)
	}
}

// captureLogN is captureLog with a configurable frame count.
func captureLogN(t *testing.T, bug pipeline.Bug, resolver *ops.Resolver, frames int) *mlexray.Log {
	t.Helper()
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	mon := mlexray.NewMonitor(mlexray.WithCaptureMode(mlexray.CaptureFull), mlexray.WithPerLayer(true))
	cl, err := pipeline.NewClassifier(entry.Mobile, pipeline.Options{Resolver: resolver, Monitor: mon, Bug: bug})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range datasets.SynthImageNet(5555, frames) {
		if _, _, err := cl.Classify(s.Image); err != nil {
			t.Fatal(err)
		}
	}
	return mon.Log()
}

// TestFacadeShardedIngest drives the sharded ingestion API through the
// facade: two collectors behind a shard.Gateway, a fleet of devices
// uploaded through it, and the merged /fleet byte-identical to a single
// collector ingesting the same uploads.
func TestFacadeShardedIngest(t *testing.T) {
	ref := captureLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), false)
	edge := captureLog(t, pipeline.BugNormalization, ops.NewOptimized(ops.Fixed()), false)

	newCollector := func() *httptest.Server {
		srv, err := mlexray.NewIngestServer(mlexray.IngestServerOptions{Ref: ref})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts
	}
	single := newCollector()
	s0, s1 := newCollector(), newCollector()
	gw, err := shard.NewGateway(shard.GatewayOptions{
		Shards: []shard.ShardAddr{
			{Name: "shard-0", URL: s0.URL},
			{Name: "shard-1", URL: s1.URL},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gwTS := httptest.NewServer(gw)
	defer gwTS.Close()

	upload := func(base, device string) {
		sink, err := mlexray.NewRemoteSink(mlexray.RemoteSinkOptions{
			URL: base, Device: device, Format: mlexray.FormatBinary,
		})
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f <= edge.Frames(); f++ {
			if recs := edge.ByFrame(f); len(recs) > 0 {
				if err := sink.WriteFrame(f, recs); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	getFleet := func(base string) []byte {
		resp, err := http.Get(base + "/fleet")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/fleet status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, device := range []string{"Pixel4", "Pixel3", "Emulator-1", "Emulator-2"} {
		upload(gwTS.URL, device)
		upload(single.URL, device)
	}
	want, got := getFleet(single.URL), getFleet(gwTS.URL)
	if !bytes.Equal(want, got) {
		t.Errorf("gateway /fleet differs from single collector:\nsingle: %s\nmerged: %s", want, got)
	}

	// The placement ring is exposed directly too, and agrees with the
	// gateway's routing decisions.
	ring, err := shard.NewRing([]string{"shard-0", "shard-1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, device := range []string{"Pixel4", "Pixel3", "Emulator-1", "Emulator-2"} {
		if ring.Owner(device) != gw.Owner(device) {
			t.Errorf("ring owner %q != gateway owner %q for %s",
				ring.Owner(device), gw.Owner(device), device)
		}
	}
}

// TestFacadeStreamingIngest drives the ingestion API through the facade: a
// replay streams into a live collector via a RemoteSink, and the per-device
// report read off the server equals the offline Validate over the log the
// replay kept locally.
func TestFacadeStreamingIngest(t *testing.T) {
	ref := captureLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), false)
	edge := captureLog(t, pipeline.BugNormalization, ops.NewOptimized(ops.Fixed()), false)

	// Streaming validator alone: identical to offline Validate.
	sv := core.NewStreamValidator(ref, mlexray.DefaultValidateOptions())
	for _, r := range edge.Records {
		if err := sv.Consume(r); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := sv.Report()
	if err != nil {
		t.Fatal(err)
	}
	offline, err := mlexray.Validate(edge, ref, mlexray.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if streamed.OutputAgreement != offline.OutputAgreement || len(streamed.Findings) != len(offline.Findings) {
		t.Errorf("streamed report %+v differs from offline %+v", streamed, offline)
	}

	// Full service loop: durable collector + RemoteSink upload + fleet
	// report, then a restart over the same WAL directory recovering it all.
	walDir := t.TempDir()
	srv, err := mlexray.NewIngestServer(mlexray.IngestServerOptions{Ref: ref, DataDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	sink, err := mlexray.NewRemoteSink(mlexray.RemoteSinkOptions{
		URL: ts.URL, Device: "Pixel4", Format: mlexray.FormatBinary, Gzip: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f <= edge.Frames(); f++ {
		if recs := edge.ByFrame(f); len(recs) > 0 {
			if err := sink.WriteFrame(f, recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := srv.FleetReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Devices) != 1 || rep.Devices[0].Device != "Pixel4" {
		t.Fatalf("fleet report devices = %+v", rep.Devices)
	}
	if got, want := rep.FleetAgreement, offline.OutputAgreement; got != want {
		t.Errorf("server-side agreement %.4f, offline %.4f", got, want)
	}

	// Restart the collector over the same data directory: the WAL replay
	// recovers the session and the fleet report survives the "crash".
	srv.Close()
	srv2, err := mlexray.NewIngestServer(mlexray.IngestServerOptions{Ref: ref, DataDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	var rs ingest.RecoveryStats = srv2.Recovery()
	if rs.Sessions != 1 || rs.Chunks != sink.Chunks() {
		t.Errorf("recovery stats %+v, want 1 session / %d chunks", rs, sink.Chunks())
	}
	rep2, err := srv2.FleetReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FleetAgreement != rep.FleetAgreement || len(rep2.Devices) != 1 {
		t.Errorf("recovered fleet report %+v differs from pre-crash %+v", rep2, rep)
	}
}

// TestFacadeObservability drives the self-telemetry API through the facade:
// a shared obs.Registry across a collector and an upload sink, the
// Prometheus exposition served by obs.DebugMux, the sink's client-side Stats
// reconciling with the server's chunk counter, and the per-chunk trace in
// the collector's trace ring.
func TestFacadeObservability(t *testing.T) {
	ref := captureLog(t, pipeline.BugNone, ops.NewReference(ops.Fixed()), false)
	edge := captureLog(t, pipeline.BugNormalization, ops.NewOptimized(ops.Fixed()), false)

	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	srv, err := mlexray.NewIngestServer(mlexray.IngestServerOptions{Ref: ref, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sink, err := mlexray.NewRemoteSink(mlexray.RemoteSinkOptions{
		URL: ts.URL, Device: "Pixel4", Format: mlexray.FormatBinary, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f <= edge.Frames(); f++ {
		if recs := edge.ByFrame(f); len(recs) > 0 {
			if err := sink.WriteFrame(f, recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var st ingest.SinkStats = sink.Stats()
	if st.Chunks == 0 || st.GiveUps != 0 {
		t.Fatalf("sink stats %+v: want chunks > 0, no give-ups", st)
	}

	// One scrape shows both sides of the same session: the sink's
	// client-side counter and the collector's ingest counter agree.
	debug := httptest.NewServer(obs.DebugMux(reg, srv.Traces()))
	defer debug.Close()
	resp, err := http.Get(debug.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body := buf.String()
	for _, want := range []string{
		"mlexray_ingest_chunks_total", "mlexray_sink_chunks_total",
		"mlexray_process_goroutines",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("/metrics missing %s:\n%s", want, body)
		}
	}

	// The collector traced every chunk under its <stream>-<index> ID.
	spans := srv.TraceDump()
	var ingestHops int
	for _, s := range spans {
		if s.Hop == "ingest" {
			ingestHops++
		}
	}
	if ingestHops != st.Chunks {
		t.Errorf("trace ring holds %d ingest hops, sink sent %d chunks", ingestHops, st.Chunks)
	}
}
