package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"mlexray/internal/core"
	"mlexray/internal/datasets"
	"mlexray/internal/graph"
	"mlexray/internal/imaging"
	"mlexray/internal/ingest"
	"mlexray/internal/ops"
	"mlexray/internal/pipeline"
	"mlexray/internal/replay"
	"mlexray/internal/runner"
	"mlexray/internal/zoo"
)

const modelName = "mobilenetv2-mini"

// batchFrames is the replay batch of the capturing workloads — the CLIs'
// default -batch.
const batchFrames = 8

// sizes are the distinct frames each workload's pass runs. A pass is the
// fixed unit of work; a run repeats passes until its time is up.
type sizes struct {
	evalFrames    int
	captureFrames int
	ingestFrames  int
	quantFrames   int
	// sampleFrames is how many leading frames of the edge_capture log have
	// their tensor payloads compared against an in-memory capture.
	sampleFrames int
}

var (
	// ingestFrames 63 = 7 chunks of 9 full-capture frames at the default
	// 1 MiB chunk threshold, so no pass ends on a runt chunk.
	fullSizes  = sizes{evalFrames: 2048, captureFrames: 256, ingestFrames: 63, quantFrames: 256, sampleFrames: 8}
	quickSizes = sizes{evalFrames: 8, captureFrames: 8, ingestFrames: 9, quantFrames: 8, sampleFrames: 2}
)

// env is what a workload's set-up receives: the seed is the only
// randomness, and the program under test sees only inputs generated from it.
type env struct {
	seed  int64
	sizes sizes
	quick bool
	tmp   string // scratch directory, removed at exit
	// modelLoad is how long the process's one zoo.Get took.
	modelLoad time.Duration
}

// recorder collects what one measurement observes: per-operation latency
// samples, output checks attempted and failed, and (traced runs only) spans.
type recorder struct {
	lat       []time.Duration
	passes    []passSample // one per timed pass, in order
	scratch   []time.Duration
	attempted int
	failed    int
	tr        *tracer
	// firstFailure keeps the first output mismatch for the error message.
	firstFailure string
}

// check counts one output check.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.firstFailure == "" {
			r.firstFailure = fmt.Sprintf(format, args...)
		}
	}
}

// merge folds another recorder's checks into r, keeping the first failure.
func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstFailure == "" {
		r.firstFailure = o.firstFailure
	}
}

// instance is one set-up workload: pass runs its fixed unit of work once.
type instance interface {
	framesPerPass() int
	pass(r *recorder, n int) error
	close()
}

// workload names one benchmark workload and how to set it up (why each
// exists is in BENCHMARK.json and README.md). Set-up includes output
// verification and one warm-up pass, recorded into r.
type workload struct {
	name  string
	setup func(e *env, r *recorder) (instance, error)
}

var workloads = []workload{
	{"edge_eval", setupEdgeEval},
	{"edge_capture", setupEdgeCapture},
	{"collector_ingest", setupCollectorIngest},
	{"exray_quant", setupExrayQuant},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fullCapture() []core.MonitorOption {
	return []core.MonitorOption{core.WithCaptureMode(core.CaptureFull), core.WithPerLayer(true)}
}

func synthImages(seed int64, n int) []*imaging.Image {
	return replay.Images(datasets.SynthImageNet(seed, n))
}

// edgeOptions is the deployed float configuration of the edge workloads.
func edgeOptions() pipeline.Options {
	return pipeline.Options{Resolver: ops.NewOptimized(ops.Fixed())}
}

// ---- edge_eval --------------------------------------------------------

type edgeEval struct {
	model  *graph.Model
	images []*imaging.Image
	want   []int
	got    []int
}

func setupEdgeEval(e *env, r *recorder) (instance, error) {
	entry, err := zoo.Get(modelName)
	if err != nil {
		return nil, err
	}
	w := &edgeEval{model: entry.Mobile, images: synthImages(e.seed, e.sizes.evalFrames)}
	w.want = make([]int, len(w.images))
	w.got = make([]int, len(w.images))
	// The expected predictions come from the pipeline called directly, with
	// no replay engine in between.
	cl, err := pipeline.NewClassifier(w.model, edgeOptions())
	if err != nil {
		return nil, err
	}
	for i, im := range w.images {
		if w.want[i], _, err = cl.Classify(im); err != nil {
			return nil, err
		}
	}
	return w, w.pass(r, -1)
}

func (w *edgeEval) framesPerPass() int { return len(w.images) }
func (w *edgeEval) close()             {}

func (w *edgeEval) pass(r *recorder, n int) error {
	trace := passTrace(r, "edge_eval", n)
	root := r.tr.start(open{}, trace, "pass")
	for i := range w.got {
		w.got[i] = -1
	}
	last := time.Now()
	_, err := replay.Classification(w.model, edgeOptions(), w.images,
		runner.Options{Workers: 1, BatchFrames: 1},
		func(frame int, res replay.ClassifyResult) error {
			now := time.Now()
			r.lat = append(r.lat, now.Sub(last))
			r.tr.startAt(root, trace, "frame", last).endAt(now)
			last = now
			w.got[frame] = res.Pred
			return nil
		})
	root.end()
	if err != nil {
		return err
	}
	for i := range w.got {
		r.check(w.got[i] == w.want[i], "edge_eval pass %d frame %d: predicted %d, the direct classifier predicts %d", n, i, w.got[i], w.want[i])
	}
	return nil
}

// passTrace is the trace ID the spans of one pass share; empty (and
// unformatted) when untraced.
func passTrace(r *recorder, workload string, n int) string {
	if r.tr == nil {
		return ""
	}
	return fmt.Sprintf("%s/%d", workload, n)
}

// batchLatency returns an onFrame callback recording one latency sample per
// replay batch: every frame of a batch gets its result when the batch
// completes, so the batch turnaround is each frame's latency.
func batchLatency(r *recorder, root open, trace string, frames int) func(int, replay.ClassifyResult) error {
	last := time.Now()
	return func(frame int, _ replay.ClassifyResult) error {
		if (frame+1)%batchFrames != 0 && frame+1 != frames {
			return nil
		}
		now := time.Now()
		r.lat = append(r.lat, now.Sub(last))
		r.tr.startAt(root, trace, "batch", last).endAt(now)
		last = now
		return nil
	}
}

// ---- edge_capture -----------------------------------------------------

type edgeCapture struct {
	model   *graph.Model
	images  []*imaging.Image
	records int       // records a pass must write
	sample  *core.Log // in-memory capture of the leading frames
	// log is the last pass's JSONL log. It is memory, not the file the issue
	// asked for: 45 MB written and truncated per pass is ~90 MB/s of disk
	// writes, and disk behaviour is not measurable here (README, "Sizing").
	log bytes.Buffer
}

func setupEdgeCapture(e *env, r *recorder) (instance, error) {
	entry, err := zoo.Get(modelName)
	if err != nil {
		return nil, err
	}
	w := &edgeCapture{
		model:  entry.Mobile,
		images: synthImages(e.seed, e.sizes.captureFrames),
	}
	w.sample, err = replay.Classification(w.model, edgeOptions(), w.images[:e.sizes.sampleFrames],
		runner.Options{Workers: 1, BatchFrames: batchFrames, MonitorOptions: fullCapture()}, nil)
	if err != nil {
		return nil, err
	}
	perFrame := len(w.sample.Records) / e.sizes.sampleFrames
	w.records = perFrame * len(w.images)
	if err := w.pass(r, -1); err != nil {
		return nil, err
	}
	return w, w.verifyLog(r)
}

func (w *edgeCapture) framesPerPass() int { return len(w.images) }
func (w *edgeCapture) close()             {}

func (w *edgeCapture) pass(r *recorder, n int) error {
	trace := passTrace(r, "edge_capture", n)
	root := r.tr.start(open{}, trace, "pass")
	defer root.end()
	w.log.Reset()
	sink := core.NewJSONLSink(&w.log)
	sp := r.tr.start(root, trace, "replay.classification")
	_, err := replay.Classification(w.model, edgeOptions(), w.images,
		runner.Options{Workers: 1, BatchFrames: batchFrames, MonitorOptions: fullCapture(), Sink: sink, DiscardLog: true},
		batchLatency(r, sp, trace, len(w.images)))
	sp.end()
	if err != nil {
		return err
	}
	sp = r.tr.start(root, trace, "core.sink_flush")
	err = sink.Flush()
	sp.end()
	if err != nil {
		return err
	}
	r.check(sink.Records() == w.records && sink.Bytes() == w.log.Len(), "edge_capture pass %d: wrote %d records in %d bytes, want %d records and the sink counted %d bytes", n, sink.Records(), w.log.Len(), w.records, sink.Bytes())
	return nil
}

// verify re-opens the last timed pass's log once the timing is over.
func (w *edgeCapture) verify(r *recorder) error { return w.verifyLog(r) }

// verifyLog re-opens the last pass's log: sequence numbers must run
// 0..N-1, frames must not decrease, and the tensor payloads of the sampled
// frames must equal the in-memory capture byte for byte.
func (w *edgeCapture) verifyLog(r *recorder) error {
	dec, format, err := core.OpenLog(bytes.NewReader(w.log.Bytes()))
	if err != nil {
		return err
	}
	r.check(format == core.FormatJSONL, "edge_capture log format %v, want jsonl", format)
	seq, frame, payloadOK := 0, 0, true
	ordered := true
	for {
		rec, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("edge_capture log record %d: %w", seq, err)
		}
		if rec.Seq != seq || rec.Frame < frame {
			ordered = false
		}
		frame = rec.Frame
		if seq < len(w.sample.Records) {
			want := &w.sample.Records[seq]
			if rec.Key != want.Key || rec.Frame != want.Frame || !bytes.Equal(rec.Payload, want.Payload) {
				payloadOK = false
			}
		}
		seq++
	}
	r.check(seq == w.records, "edge_capture log holds %d records, want %d", seq, w.records)
	r.check(ordered, "edge_capture log: seq not 0..N-1 or frames decrease")
	r.check(payloadOK, "edge_capture log: sampled tensor payloads differ from the in-memory capture")
	return nil
}

// ---- collector_ingest -------------------------------------------------

// timedTransport is the device's view of the collector: it times every
// chunk POST and counts any answer but a first-attempt 200.
type timedTransport struct {
	base http.RoundTripper
	rec  *recorder
	// parent is the span a request nests under.
	parent open
	trace  string
	// cur is the open request the in-process handler nests its span under;
	// atomic because the handler runs on the server's goroutine.
	cur atomic.Pointer[openRequest]
}

type openRequest struct {
	tr    *tracer
	trace string
	sp    open
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := t.rec
	name := "http.get"
	if req.Method == http.MethodPost {
		name = "http.post"
	}
	sp := r.tr.start(t.parent, t.trace, name)
	t.cur.Store(&openRequest{tr: r.tr, trace: t.trace, sp: sp})
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if req.Method == http.MethodPost {
		// The sink reads at most a 512-byte error message, so the header
		// arriving is the ack.
		r.lat = append(r.lat, time.Since(start))
		r.check(err == nil && resp.StatusCode == http.StatusOK, "collector_ingest: chunk %s not acked 200 on the first attempt", req.Header.Get("X-MLEXray-Chunk"))
	}
	sp.end()
	return resp, err
}

// tracedHandler nests a server-side span under the client's open request.
type tracedHandler struct {
	next http.Handler
	tt   *timedTransport
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	cur := h.tt.cur.Load()
	if cur == nil || cur.tr == nil {
		h.next.ServeHTTP(w, req)
		return
	}
	sp := cur.tr.start(cur.sp, cur.trace, "ingest.serve")
	h.next.ServeHTTP(w, req)
	sp.end()
}

type collectorIngest struct {
	groups    [][]core.Record
	ref       *core.Log
	srv       *ingest.Server
	ts        *httptest.Server
	tt        *timedTransport
	conns     *http.Transport // the client's connections, closed with the workload
	client    *http.Client
	device    int
	want      ingest.DeviceStatus // the verification pass's report
	wantJSON  []byte
	wireBytes int
	// reportLat are the last-Flush → report-read timings (ledger only).
	reportLat []time.Duration
}

// frameGroups splits a log into per-frame record groups, the unit a sink
// writes.
func frameGroups(l *core.Log) [][]core.Record {
	var groups [][]core.Record
	for start := 0; start < len(l.Records); {
		end := start
		for end < len(l.Records) && l.Records[end].Frame == l.Records[start].Frame {
			end++
		}
		groups = append(groups, l.Records[start:end])
		start = end
	}
	return groups
}

// captureLogs replays images through the deployed float pipeline and the
// reference pipeline with full capture, as edgerun and refrun would.
func captureLogs(m *graph.Model, images []*imaging.Image) (edge, ref *core.Log, err error) {
	ropts := runner.Options{Workers: 1, BatchFrames: batchFrames, MonitorOptions: fullCapture()}
	edge, err = replay.Classification(m, edgeOptions(), images, ropts, nil)
	if err != nil {
		return nil, nil, err
	}
	ref, err = replay.Classification(m, pipeline.Options{Resolver: ops.NewReference(ops.Fixed())}, images, ropts, nil)
	return edge, ref, err
}

func setupCollectorIngest(e *env, r *recorder) (instance, error) {
	entry, err := zoo.Get(modelName)
	if err != nil {
		return nil, err
	}
	edge, ref, err := captureLogs(entry.Mobile, synthImages(e.seed, e.sizes.ingestFrames))
	if err != nil {
		return nil, err
	}
	w := &collectorIngest{groups: frameGroups(edge), ref: ref}
	if err := w.verifyFleet(r); err != nil {
		return nil, err
	}
	w.srv, err = ingest.NewServer(ingest.ServerOptions{Ref: ref})
	if err != nil {
		return nil, err
	}
	w.conns = &http.Transport{MaxIdleConnsPerHost: 4}
	w.tt = &timedTransport{base: w.conns, rec: r}
	w.ts = httptest.NewServer(tracedHandler{next: w.srv, tt: w.tt})
	w.client = &http.Client{Transport: w.tt}
	// The verification pass fixes what every later pass's report must say.
	if err := w.pass(r, -1); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *collectorIngest) framesPerPass() int { return len(w.groups) }

func (w *collectorIngest) close() {
	w.ts.Close()
	w.srv.Close()
	w.conns.CloseIdleConnections()
}

// newSink opens a binary-chunk upload stream for device, as edgerun -upload
// does.
func newSink(url, device string, client *http.Client) (*ingest.RemoteSink, error) {
	return ingest.NewRemoteSink(ingest.SinkOptions{URL: url, Device: device, Format: core.FormatBinary, Client: client})
}

// uploadAll streams every frame group through a new sink and flushes it.
func uploadAll(url, device string, client *http.Client, groups [][]core.Record) (*ingest.RemoteSink, error) {
	sink, err := newSink(url, device, client)
	if err != nil {
		return nil, err
	}
	for _, recs := range groups {
		if err := sink.WriteFrame(recs[0].Frame, recs); err != nil {
			return nil, err
		}
	}
	return sink, sink.Flush()
}

func (w *collectorIngest) pass(r *recorder, n int) error {
	trace := passTrace(r, "collector_ingest", n)
	root := r.tr.start(open{}, trace, "pass")
	defer root.end()
	w.tt.rec, w.tt.trace = r, trace
	device := fmt.Sprintf("bench-%d", w.device)
	w.device++
	sink, err := newSink(w.ts.URL, device, w.client)
	if err != nil {
		return err
	}
	for _, recs := range w.groups {
		sp := r.tr.start(root, trace, "ingest.sink_write_frame")
		w.tt.parent = sp
		err := sink.WriteFrame(recs[0].Frame, recs)
		sp.end()
		if err != nil {
			return err
		}
	}
	sp := r.tr.start(root, trace, "ingest.sink_flush")
	w.tt.parent = sp
	err = sink.Flush()
	sp.end()
	if err != nil {
		return err
	}
	r.check(sink.Retries() == 0, "collector_ingest pass %d: %d retries", n, sink.Retries())
	w.wireBytes = sink.Bytes()

	start := time.Now()
	sp = r.tr.start(root, trace, "device_report")
	w.tt.parent = sp
	st, err := w.deviceReport(device)
	sp.end()
	if err != nil {
		return err
	}
	w.reportLat = append(w.reportLat, time.Since(start))
	got, err := json.Marshal(st.Report)
	if err != nil {
		return err
	}
	if n < 0 {
		w.want, w.wantJSON = st, got
		r.check(st.Report != nil && st.Frames == len(w.groups) && st.Chunks == sink.Chunks() && st.Bytes == int64(sink.Bytes()),
			"collector_ingest verification pass: report %+v does not match the %d frames, %d chunks, %d bytes sent", st, len(w.groups), sink.Chunks(), sink.Bytes())
		return nil
	}
	same := st.Records == w.want.Records && st.Frames == w.want.Frames && st.Bytes == w.want.Bytes &&
		st.Chunks == w.want.Chunks && st.Error == "" && bytes.Equal(got, w.wantJSON)
	r.check(same, "collector_ingest pass %d: device report differs from the verification pass's", n)
	return nil
}

func (w *collectorIngest) deviceReport(device string) (ingest.DeviceStatus, error) {
	var st ingest.DeviceStatus
	resp, err := w.client.Get(w.ts.URL + "/devices/" + device)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("collector_ingest: GET /devices/%s: %d %s", device, resp.StatusCode, bytes.TrimSpace(body))
	}
	return st, json.Unmarshal(body, &st)
}

// verifyFleet uploads the stream as three devices' shards to a throw-away
// collector and requires its /fleet report to equal core.FleetValidate over
// the same shard logs.
func (w *collectorIngest) verifyFleet(r *recorder) error {
	srv, err := ingest.NewServer(ingest.ServerOptions{Ref: w.ref})
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const devices = 3
	shards := make([]core.DeviceShardLog, devices)
	per := (len(w.groups) + devices - 1) / devices
	for d := range shards {
		lo, hi := min(d*per, len(w.groups)), min((d+1)*per, len(w.groups))
		shards[d] = core.DeviceShardLog{Device: fmt.Sprintf("d%d", d), Log: &core.Log{}}
		for _, recs := range w.groups[lo:hi] {
			shards[d].Log.Records = append(shards[d].Log.Records, recs...)
		}
		if _, err := uploadAll(ts.URL, shards[d].Device, ts.Client(), w.groups[lo:hi]); err != nil {
			return err
		}
	}
	want, err := core.FleetValidate(shards, w.ref, core.DefaultValidateOptions())
	if err != nil {
		return err
	}
	resp, err := ts.Client().Get(ts.URL + "/fleet")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var got ingest.FleetResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return err
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got.Report)
	r.check(resp.StatusCode == http.StatusOK && bytes.Equal(wantJSON, gotJSON),
		"collector_ingest: /fleet differs from core.FleetValidate of the same logs:\n server  %s\n offline %s", gotJSON, wantJSON)
	return nil
}

// ---- exray_quant ------------------------------------------------------

// The drift the historical int8 depthwise kernel introduces first shows at
// this layer; every pass must name it.
const (
	wantSpikeLayer = "block1/dw"
	wantSpikeOp    = "DepthwiseConv2D"
)

type exrayQuant struct {
	model  *graph.Model
	images []*imaging.Image
	// refLog is the reference log as refrun -format binary writes it, held
	// in memory for the same reason edge_capture's log is.
	refLog    []byte
	agreement float64
}

func setupExrayQuant(e *env, r *recorder) (instance, error) {
	entry, err := zoo.Get(modelName)
	if err != nil {
		return nil, err
	}
	w := &exrayQuant{
		model:  entry.Quant,
		images: synthImages(e.seed, e.sizes.quantFrames),
	}
	ref, err := replay.Classification(entry.Mobile, pipeline.Options{Resolver: ops.NewReference(ops.Fixed())}, w.images,
		runner.Options{Workers: 1, BatchFrames: batchFrames, MonitorOptions: fullCapture()}, nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ref.WriteBinary(&buf); err != nil {
		return nil, err
	}
	w.refLog = buf.Bytes()
	return w, w.pass(r, -1)
}

func (w *exrayQuant) framesPerPass() int { return len(w.images) }
func (w *exrayQuant) close()             {}

func (w *exrayQuant) pass(r *recorder, n int) error {
	trace := passTrace(r, "exray_quant", n)
	root := r.tr.start(open{}, trace, "pass")
	defer root.end()

	sp := r.tr.start(root, trace, "replay.classification")
	edge, err := replay.Classification(w.model, pipeline.Options{Resolver: ops.NewOptimized(ops.Historical())}, w.images,
		runner.Options{Workers: 1, BatchFrames: batchFrames, MonitorOptions: fullCapture()},
		batchLatency(r, sp, trace, len(w.images)))
	sp.end()
	if err != nil {
		return err
	}

	sp = r.tr.start(root, trace, "core.read_log")
	ref, err := core.ReadLog(bytes.NewReader(w.refLog))
	sp.end()
	if err != nil {
		return err
	}

	sp = r.tr.start(root, trace, "core.validate")
	rep, err := core.Validate(edge, ref, core.DefaultValidateOptions())
	sp.end()
	if err != nil {
		return err
	}
	sp = r.tr.start(root, trace, "core.report_render")
	rep.Render(io.Discard)
	sp.end()

	if n < 0 {
		w.agreement = rep.OutputAgreement
	}
	r.check(rep.OutputAgreement == w.agreement, "exray_quant pass %d: output agreement %v, the first pass reported %v", n, rep.OutputAgreement, w.agreement)
	r.check(rep.Spike != nil && rep.Spike.Name == wantSpikeLayer && rep.Spike.OpType == wantSpikeOp,
		"exray_quant pass %d: first drift spike %+v, want %s (%s)", n, rep.Spike, wantSpikeLayer, wantSpikeOp)
	return nil
}
