package ingest

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/device"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/tensor"
	"mlexray/internal/zoo"
)

// synthLog builds a small synthetic telemetry log: per-layer tensors and
// latency plus one model output per frame, for the frames in own (nil: all
// of [0,frames)). bugged shifts layer values and flips outputs.
func synthLog(frames int, own []int, bugged bool) *core.Log {
	owned := make(map[int]bool)
	if own == nil {
		for f := 0; f < frames; f++ {
			owned[f] = true
		}
	} else {
		for _, f := range own {
			owned[f] = true
		}
	}
	layers := []string{"conv1", "dw1"}
	opTypes := []string{"Conv2D", "DepthwiseConv2D"}
	l := &core.Log{}
	seq := 0
	for f := 0; f < frames; f++ {
		if !owned[f] {
			continue
		}
		for li, name := range layers {
			tt := tensor.New(tensor.F32, 8)
			for i := range tt.F {
				tt.F[i] = float32(f + li + i)
				if bugged {
					tt.F[i] += 40
				}
			}
			var r core.Record
			r.Seq, r.Frame = seq, f
			r.Key = core.LayerOutputKey(name)
			r.LayerIndex, r.LayerName, r.OpType = li, name, opTypes[li]
			r.EncodeTensor(tt, true)
			l.Records = append(l.Records, r)
			seq++
			l.Records = append(l.Records, core.Record{
				Seq: seq, Frame: f, Key: core.LayerLatencyKey(name), Kind: core.KindMetric,
				LayerIndex: li, LayerName: name, OpType: opTypes[li],
				Value: float64(1000 * (li + 1)), Unit: "ns",
			})
			seq++
		}
		out := tensor.New(tensor.F32, 4)
		idx := f % 4
		if bugged {
			idx = (f + 1) % 4
		}
		out.F[idx] = 1
		var r core.Record
		r.Seq, r.Frame = seq, f
		r.Key = core.KeyModelOutput
		r.EncodeTensor(out, true)
		l.Records = append(l.Records, r)
		seq++
	}
	return l
}

// uploadLog streams a log to the collector through a RemoteSink, one frame
// per write, and flushes.
func uploadLog(t testing.TB, sink *RemoteSink, l *core.Log) {
	t.Helper()
	start := 0
	for start < len(l.Records) {
		end := start
		for end < len(l.Records) && l.Records[end].Frame == l.Records[start].Frame {
			end++
		}
		if err := sink.WriteFrame(l.Records[start].Frame, l.Records[start:end]); err != nil {
			t.Fatalf("write frame %d: %v", l.Records[start].Frame, err)
		}
		start = end
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
}

func newTestServer(t testing.TB, ref *core.Log) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(ServerOptions{Ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t testing.TB, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestServerFleetMatchesOfflineSynthetic pins the server-side fleet report to
// the offline FleetValidate over the same shard streams, with devices
// uploading in different encodings (plain JSONL, gzip JSONL, binary) and
// tiny chunks so every stream spans many HTTP requests.
func TestServerFleetMatchesOfflineSynthetic(t *testing.T) {
	const frames = 12
	ref := synthLog(frames, nil, false)
	_, ts := newTestServer(t, ref)

	specs := []struct {
		device string
		format core.LogFormat
		gz     bool
		bugged bool
	}{
		{"d0-a", core.FormatJSONL, false, false},
		{"d1-b", core.FormatJSONL, true, true},
		{"d2-c", core.FormatBinary, false, false},
	}
	var shards []core.DeviceShardLog
	for d, spec := range specs {
		var own []int
		for f := d; f < frames; f += len(specs) {
			own = append(own, f)
		}
		shard := synthLog(frames, own, spec.bugged)
		shards = append(shards, core.DeviceShardLog{Device: spec.device, Log: shard})
		sink, err := NewRemoteSink(SinkOptions{
			URL: ts.URL, Device: spec.device, Format: spec.format, Gzip: spec.gz,
			ChunkBytes: 256, // force many chunks
		})
		if err != nil {
			t.Fatal(err)
		}
		uploadLog(t, sink, shard)
		if sink.Chunks() < 2 {
			t.Errorf("%s: %d chunks, want a chunked upload", spec.device, sink.Chunks())
		}
	}

	want, err := core.FleetValidate(shards, ref, core.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	var got FleetResponse
	if resp := getJSON(t, ts.URL+"/fleet", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet status %d", resp.StatusCode)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got.Report)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("server fleet report differs from offline FleetValidate:\nserver:  %s\noffline: %s", gotJSON, wantJSON)
	}
	if len(got.Report.Flagged) != 1 || got.Report.Flagged[0] != "d1-b" {
		t.Errorf("flagged %v, want exactly the bugged d1-b", got.Report.Flagged)
	}

	// Per-device status: counters and an incremental report for the bugged
	// device showing the drop.
	var st DeviceStatus
	getJSON(t, ts.URL+"/devices/d1-b", &st)
	if st.Records != len(shards[1].Log.Records) {
		t.Errorf("d1-b records = %d, want %d", st.Records, len(shards[1].Log.Records))
	}
	if st.Report == nil {
		t.Fatalf("d1-b report missing (report_error %q)", st.ReportError)
	}
	if st.Report.OutputAgreement >= 0.98 {
		t.Errorf("bugged device agreement %.2f, want < 0.98", st.Report.OutputAgreement)
	}
}

// TestServerConcurrentUploads hammers one collector from many devices at
// once — interleaved chunked uploads racing status and fleet-report reads —
// and then checks the final fleet report still matches the offline
// validation. Run under -race this pins the locking discipline.
func TestServerConcurrentUploads(t *testing.T) {
	const frames = 24
	const devices = 8
	ref := synthLog(frames, nil, false)
	_, ts := newTestServer(t, ref)

	var shards []core.DeviceShardLog
	for d := 0; d < devices; d++ {
		var own []int
		for f := d; f < frames; f += devices {
			own = append(own, f)
		}
		shards = append(shards, core.DeviceShardLog{
			Device: fmt.Sprintf("dev-%02d", d),
			Log:    synthLog(frames, own, d == 3),
		})
	}

	var wg sync.WaitGroup
	errs := make([]error, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			sink, err := NewRemoteSink(SinkOptions{
				URL: ts.URL, Device: shards[d].Device,
				Format: core.LogFormat(d % 2), Gzip: d%3 == 0,
				ChunkBytes: 128,
			})
			if err != nil {
				errs[d] = err
				return
			}
			l := shards[d].Log
			start := 0
			for start < len(l.Records) {
				end := start
				for end < len(l.Records) && l.Records[end].Frame == l.Records[start].Frame {
					end++
				}
				if err := sink.WriteFrame(l.Records[start].Frame, l.Records[start:end]); err != nil {
					errs[d] = err
					return
				}
				start = end
			}
			errs[d] = sink.Flush()
		}(d)
	}
	// Status reads race the uploads: they must never observe torn state.
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/fleet")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			resp, err = http.Get(ts.URL + "/devices")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	close(stop)
	pollWG.Wait()
	for d, err := range errs {
		if err != nil {
			t.Fatalf("device %d upload: %v", d, err)
		}
	}

	want, err := core.FleetValidate(shards, ref, core.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}
	var got FleetResponse
	getJSON(t, ts.URL+"/fleet", &got)
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got.Report)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("concurrent-upload fleet report differs from offline:\nserver:  %s\noffline: %s", gotJSON, wantJSON)
	}
	if len(got.Devices) != devices {
		t.Errorf("%d devices, want %d", len(got.Devices), devices)
	}
}

// TestEndToEndFleetReplayUpload is the acceptance flow: a heterogeneous
// fleet replay streams per-device telemetry through RemoteSinks into a live
// collector, and the server's /fleet report equals core.FleetValidate run
// offline on the shard logs the replay kept locally.
func TestEndToEndFleetReplayUpload(t *testing.T) {
	entry, err := zoo.Get("mobilenetv2-mini")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 24
	images := replay.Images(datasets.SynthImageNet(5555, frames))
	monOpts := []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)}

	ref, err := replay.Classification(entry.Mobile,
		pipeline.Options{Resolver: ops.NewReference(ops.Fixed())}, images,
		runner.Options{Workers: 2, BatchFrames: 2, MonitorOptions: monOpts}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, ref)

	devs := []runner.DeviceSpec{
		{Profile: device.Pixel4(), Workers: 2, BatchFrames: 4},
		{Profile: device.Pixel3(), Workers: 1, BatchFrames: 2},
		{Profile: device.EmulatorX86(), Workers: 1, BatchFrames: 2},
	}
	names := make([]string, len(devs))
	sinks := make([]*RemoteSink, len(devs))
	for d := range devs {
		names[d] = fmt.Sprintf("d%d-%s", d, devs[d].Name())
		sinks[d], err = NewRemoteSink(SinkOptions{
			URL: ts.URL, Device: names[d],
			Format: core.FormatBinary, Gzip: d%2 == 0,
			ChunkBytes: 64 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		devs[d].Sink = sinks[d]
	}
	const bugged = 1
	fleet := &runner.Fleet{Devices: devs, Policy: runner.RoundRobin{}, MonitorOptions: monOpts}
	res, err := replay.FleetClassification(entry.Mobile,
		pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}, images, fleet,
		func(dev int, spec runner.DeviceSpec, o *pipeline.Options) {
			if dev == bugged {
				o.Bug = pipeline.BugNormalization
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for d := range sinks {
		if err := sinks[d].Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Offline cross-validation of the same shards, in the server's
	// device-name order.
	shards := make([]core.DeviceShardLog, len(devs))
	for d := range devs {
		shards[d] = core.DeviceShardLog{Device: names[d], Log: res.DeviceLogs[d]}
	}
	want, err := core.FleetValidate(shards, ref, core.DefaultValidateOptions())
	if err != nil {
		t.Fatal(err)
	}

	var got FleetResponse
	if resp := getJSON(t, ts.URL+"/fleet", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet status %d", resp.StatusCode)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got.Report)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("live /fleet report differs from offline FleetValidate:\nserver:  %s\noffline: %s", gotJSON, wantJSON)
	}
	if len(got.Report.Flagged) != 1 || got.Report.Flagged[0] != names[bugged] {
		t.Errorf("flagged %v, want exactly %s", got.Report.Flagged, names[bugged])
	}
	if !reflect.DeepEqual(got.Devices, names) {
		t.Errorf("devices %v, want %v", got.Devices, names)
	}
}

// TestRemoteSinkRetryBackoff pins the retry contract: transient 5xx
// responses retry with backoff and the stream completes; a 4xx fails fast.
func TestRemoteSinkRetryBackoff(t *testing.T) {
	ref := synthLog(4, nil, false)
	srv, err := NewServer(ServerOptions{Ref: ref})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	failures := 2
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fail := failures > 0
		if fail {
			failures--
		}
		mu.Unlock()
		if fail {
			http.Error(w, "drained", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	sink, err := NewRemoteSink(SinkOptions{
		URL: flaky.URL, Device: "flaky-dev", Format: core.FormatJSONL,
		ChunkBytes: 1 << 20, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := synthLog(4, nil, false)
	uploadLog(t, sink, l)
	if sink.Retries() < 2 {
		t.Errorf("%d retries recorded, want >= 2", sink.Retries())
	}
	if sv := srv.Session("flaky-dev"); sv == nil || sv.Records() != len(l.Records) {
		t.Errorf("collector holds %v records, want %d", sv, len(l.Records))
	}

	// 4xx must not retry: a sink pointed at a rejecting endpoint fails fast
	// and sticks.
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad stream", http.StatusBadRequest)
	}))
	defer reject.Close()
	sink2, err := NewRemoteSink(SinkOptions{
		URL: reject.URL, Device: "d", Format: core.FormatJSONL, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink2.WriteFrame(0, l.Records[:1]); err != nil {
		t.Fatalf("buffered write failed: %v", err)
	}
	if err := sink2.Flush(); err == nil {
		t.Error("flush to rejecting collector succeeded")
	}
	if sink2.Retries() != 0 {
		t.Errorf("4xx retried %d times", sink2.Retries())
	}
	if err := sink2.WriteFrame(1, l.Records[:1]); err == nil {
		t.Error("write after failed flush did not surface the sticky error")
	}
}

// TestRemoteSinkGzipShrinksWire pins the compression satellite end to end:
// the same stream costs fewer wire bytes with Gzip on, and the server
// decodes both identically.
func TestRemoteSinkGzipShrinksWire(t *testing.T) {
	ref := synthLog(6, nil, false)
	srv, ts := newTestServer(t, ref)
	l := synthLog(6, nil, false)
	wire := map[bool]int{}
	for _, gz := range []bool{false, true} {
		name := fmt.Sprintf("gz-%v", gz)
		sink, err := NewRemoteSink(SinkOptions{
			URL: ts.URL, Device: name, Format: core.FormatJSONL, Gzip: gz,
		})
		if err != nil {
			t.Fatal(err)
		}
		uploadLog(t, sink, l)
		wire[gz] = sink.Bytes()
		if sv := srv.Session(name); sv.Records() != len(l.Records) {
			t.Errorf("%s: server holds %d records, want %d", name, sv.Records(), len(l.Records))
		}
	}
	if wire[true] >= wire[false] {
		t.Errorf("gzip wire bytes %d not below plain %d", wire[true], wire[false])
	}
}

// TestServerRequestValidation pins the protocol errors: missing device IDs,
// undecodable bodies, unknown devices and report endpoints without a
// reference log.
func TestServerRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, synthLog(2, nil, false))

	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing device: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/ingest?device=x", "application/octet-stream",
		strings.NewReader("not a log line\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d (%s), want 400", resp.StatusCode, body)
	}

	if resp := getJSON(t, ts.URL+"/devices/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown device: status %d, want 404", resp.StatusCode)
	}

	// Collection mode: ingestion works, reports 409.
	_, tsNoRef := func() (*Server, *httptest.Server) {
		srv, err := NewServer(ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := httptest.NewServer(srv)
		t.Cleanup(h.Close)
		return srv, h
	}()
	sink, err := NewRemoteSink(SinkOptions{URL: tsNoRef.URL, Device: "d", Format: core.FormatBinary})
	if err != nil {
		t.Fatal(err)
	}
	uploadLog(t, sink, synthLog(2, nil, false))
	if resp := getJSON(t, tsNoRef.URL+"/fleet", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("collection-mode /fleet: status %d, want 409", resp.StatusCode)
	}
	var st DeviceStatus
	getJSON(t, tsNoRef.URL+"/devices/d", &st)
	if st.Records == 0 || st.ReportError == "" {
		t.Errorf("collection-mode status = %+v, want counted records and a report_error", st)
	}
}

// TestIngestChunkIdempotency pins the retry contract on the server side: a
// chunk replayed with the same sequence number (a retry whose first
// response was lost) is acknowledged without re-ingesting, and a sequence
// gap is rejected — what keeps streamed reports equal to offline ones under
// at-least-once delivery.
func TestIngestChunkIdempotency(t *testing.T) {
	srv, ts := newTestServer(t, synthLog(4, nil, false))
	l := synthLog(4, nil, false)
	var chunk bytes.Buffer
	if err := l.Write(&chunk, core.FormatBinary); err != nil {
		t.Fatal(err)
	}
	post := func(idx string) (*http.Response, IngestResponse) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest?device=d", bytes.NewReader(chunk.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if idx != "" {
			req.Header.Set("X-MLEXray-Chunk", idx)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ir IngestResponse
		_ = json.NewDecoder(resp.Body).Decode(&ir)
		return resp, ir
	}
	if resp, ir := post("0"); resp.StatusCode != http.StatusOK || ir.Records != len(l.Records) {
		t.Fatalf("first delivery: status %d, records %d", resp.StatusCode, ir.Records)
	}
	// Replay of the applied chunk: acknowledged, nothing re-ingested.
	resp, ir := post("0")
	if resp.StatusCode != http.StatusOK || !ir.Duplicate {
		t.Errorf("replayed chunk: status %d duplicate=%v, want 200 + duplicate", resp.StatusCode, ir.Duplicate)
	}
	if ir.Records != len(l.Records) || srv.Session("d").Records() != len(l.Records) {
		t.Errorf("replayed chunk double-ingested: session holds %d records, want %d",
			srv.Session("d").Records(), len(l.Records))
	}
	// A gap means a lost chunk: refuse rather than silently skip.
	if resp, _ := post("5"); resp.StatusCode != http.StatusConflict {
		t.Errorf("gapped chunk: status %d, want 409", resp.StatusCode)
	}
	// Headerless uploads (curl) apply unconditionally.
	if resp, ir := post(""); resp.StatusCode != http.StatusOK || ir.Records != 2*len(l.Records) {
		t.Errorf("headerless upload: status %d records %d, want %d", resp.StatusCode, ir.Records, 2*len(l.Records))
	}
}

// TestIngestNewStreamAppends pins the upload-generation contract: a second
// RemoteSink for the same device (a client re-run against a long-lived
// collector) restarts chunk numbering under a fresh stream token and its
// data APPENDS — it must not be dropped as duplicate chunks of the first
// run.
func TestIngestNewStreamAppends(t *testing.T) {
	srv, ts := newTestServer(t, synthLog(4, nil, false))
	l := synthLog(4, nil, false)
	for run := 0; run < 2; run++ {
		sink, err := NewRemoteSink(SinkOptions{
			URL: ts.URL, Device: "rerun-dev", Format: core.FormatBinary, ChunkBytes: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		uploadLog(t, sink, l)
	}
	if got, want := srv.Session("rerun-dev").Records(), 2*len(l.Records); got != want {
		t.Errorf("after two upload runs the session holds %d records, want %d (second run dropped?)", got, want)
	}
}

// TestIngestDecompressionBomb pins the decoded-footprint cap: a small gzip
// body that decodes far past MaxBodyBytes is rejected with 413 instead of
// being buffered.
func TestIngestDecompressionBomb(t *testing.T) {
	srv, err := NewServer(ServerOptions{MaxBodyBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A highly repetitive log: one big zero-filled tensor per record
	// compresses ~1000:1.
	l := &core.Log{}
	zero := tensor.New(tensor.F32, 64<<10)
	for i := 0; i < 8; i++ {
		var r core.Record
		r.Seq, r.Frame, r.Key = i, i, "bomb"
		r.EncodeTensor(zero, true)
		l.Records = append(l.Records, r)
	}
	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	if err := l.Write(zw, core.FormatBinary); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if body.Len() >= 64<<10 {
		t.Fatalf("bomb body %d bytes does not fit the wire cap", body.Len())
	}
	resp, err := http.Post(ts.URL+"/ingest?device=bomber", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("decompression bomb: status %d, want 413", resp.StatusCode)
	}
}

// TestIngestLyingRecordLength pins the other way a small gzip body could
// balloon: a 13-byte MLXB stream whose one record announces 2³⁰ bytes and
// delivers three. The decoder reserves nothing a stream does not go on to
// fill, so the upload is a truncated log — 400 — at the cost of a slab, where
// it used to allocate the announced gibibyte before noticing.
func TestIngestLyingRecordLength(t *testing.T) {
	_, ts := newTestServer(t, synthLog(2, nil, false))
	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	zw.Write([]byte("MLXB\x01\x80\x80\x80\x80\x04abc"))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	wire := body.Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Post(ts.URL+"/ingest?device=liar", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unexpected EOF") {
		t.Errorf("lying record length: status %d %q, want 400 naming the truncated record", resp.StatusCode, msg)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("a %d-byte upload made the collector allocate %d bytes", wire, got)
	}
}

// TestHeaderlessUploadDoesNotResetStream is the stream-reset regression: a
// curl-style headerless upload arriving mid-way through an active RemoteSink
// stream must not disturb the stream's chunk numbering. Pre-fix, the
// headerless chunk overwrote the session's stream token and reset nextChunk
// to 0, so the sink's next in-sequence chunk drew a spurious 409 and the
// sink went sticky-failed.
func TestHeaderlessUploadDoesNotResetStream(t *testing.T) {
	srv, ts := newTestServer(t, synthLog(4, nil, false))
	l := synthLog(4, nil, false)
	sink, err := NewRemoteSink(SinkOptions{
		URL: ts.URL, Device: "mixed", Format: core.FormatBinary,
		ChunkBytes: 1, // ship every frame as its own chunk
	})
	if err != nil {
		t.Fatal(err)
	}
	writeFrames := func(lo, hi int) {
		start := 0
		for start < len(l.Records) {
			end := start
			for end < len(l.Records) && l.Records[end].Frame == l.Records[start].Frame {
				end++
			}
			if f := l.Records[start].Frame; f >= lo && f < hi {
				if err := sink.WriteFrame(f, l.Records[start:end]); err != nil {
					t.Fatalf("write frame %d: %v", f, err)
				}
			}
			start = end
		}
	}

	writeFrames(0, 2) // chunks 0 and 1 of the sink's stream are on the server

	// The operator curls an extra log into the same device mid-stream.
	extra := synthLog(4, []int{2}, false)
	var curl bytes.Buffer
	if err := extra.Write(&curl, core.FormatBinary); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ingest?device=mixed", "application/octet-stream", &curl)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("curl upload: status %d", resp.StatusCode)
	}

	// The sink keeps streaming: its chunk 2 must be accepted in sequence, not
	// rejected because the curl upload reset the generation state.
	writeFrames(2, 4)
	if err := sink.Flush(); err != nil {
		t.Fatalf("sink failed after interleaved headerless upload: %v", err)
	}
	if got, want := srv.Session("mixed").Records(), len(l.Records)+len(extra.Records); got != want {
		t.Errorf("session holds %d records, want %d (sink + curl)", got, want)
	}
}

// TestIngestOversizedBody413 is the wrong-status regression: a body past the
// wire-size cap must answer 413 Request Entity Too Large, not a misleading
// 400 "decode record" from the truncated read.
func TestIngestOversizedBody413(t *testing.T) {
	srv, err := NewServer(ServerOptions{MaxBodyBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A valid, uncompressed log whose wire size exceeds the cap.
	l := &core.Log{}
	var r core.Record
	r.Seq, r.Frame, r.Key = 0, 0, "big"
	r.EncodeTensor(tensor.New(tensor.F32, 4<<10), true)
	l.Records = append(l.Records, r)
	var body bytes.Buffer
	if err := l.Write(&body, core.FormatBinary); err != nil {
		t.Fatal(err)
	}
	if body.Len() <= 4<<10 {
		t.Fatalf("test body %d bytes does not exceed the cap", body.Len())
	}
	resp, err := http.Post(ts.URL+"/ingest?device=big", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d (%s), want 413", resp.StatusCode, bytes.TrimSpace(msg))
	}
}

// TestIngestGlobalFrameTagFrames is the frame-accounting regression: a fleet
// shard owning global frame tags 1000–1009 holds 10 frames, not 1010. The
// old maxFrame+1 accounting inflated every sharded device's frame count by
// its frame-tag offset.
func TestIngestGlobalFrameTagFrames(t *testing.T) {
	const total, lo = 1010, 1000
	ref := synthLog(total, nil, false)
	_, ts := newTestServer(t, ref)

	var own []int
	for f := lo; f < total; f++ {
		own = append(own, f)
	}
	shard := synthLog(total, own, false)
	var body bytes.Buffer
	if err := shard.Write(&body, core.FormatBinary); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ingest?device=shard-hi", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ir.Frames != total-lo {
		t.Errorf("ingest ack frames = %d, want %d (distinct frames, not maxFrame+1)", ir.Frames, total-lo)
	}
	var st DeviceStatus
	getJSON(t, ts.URL+"/devices/shard-hi", &st)
	if st.Frames != total-lo {
		t.Errorf("status frames = %d, want %d", st.Frames, total-lo)
	}
}

// TestFleetDevicesMatchReport is the snapshot-consistency regression: the
// /fleet device list must agree with the report in the same response even
// while new devices register concurrently. Pre-fix the list and the report
// were separate snapshots, so a first upload landing between them produced a
// device list the report did not cover.
func TestFleetDevicesMatchReport(t *testing.T) {
	ref := synthLog(4, nil, false)
	_, ts := newTestServer(t, ref)
	l := synthLog(4, nil, false)
	var body bytes.Buffer
	if err := l.Write(&body, core.FormatBinary); err != nil {
		t.Fatal(err)
	}
	chunk := body.Bytes()

	// Seed one device so the fleet report exists before the first poll (an
	// empty fleet answers 409).
	resp, err := http.Post(ts.URL+"/ingest?device=seed", "application/octet-stream", bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// A writer registers a stream of brand-new devices while the main
	// goroutine polls /fleet; every response must be internally consistent.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			resp, err := http.Post(
				fmt.Sprintf("%s/ingest?device=race-%04d", ts.URL, i),
				"application/octet-stream", bytes.NewReader(chunk))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	polls := 0
	for {
		select {
		case <-done:
			if polls == 0 {
				t.Fatal("writer finished before a single poll")
			}
			return
		default:
		}
		var got FleetResponse
		if resp := getJSON(t, ts.URL+"/fleet", &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("/fleet status %d", resp.StatusCode)
		}
		polls++
		if len(got.Devices) != len(got.Report.Devices) {
			t.Fatalf("device list (%d) and report (%d) disagree", len(got.Devices), len(got.Report.Devices))
		}
		for i, dr := range got.Report.Devices {
			if got.Devices[i] != dr.Device {
				t.Fatalf("devices[%d] = %q but report[%d] covers %q", i, got.Devices[i], i, dr.Device)
			}
		}
	}
}
